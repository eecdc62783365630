// Package pipeline implements the pipelined execution subsystem: the
// software analogue of the paper's deeply pipelined dataflow (§4.1), in which
// embedding lookups and DNN compute for different items are in flight
// simultaneously so memory latency hides behind compute — the source of the
// "throughput is not the reciprocal of latency" observation (§5.3).
//
// The executor decouples the batched datapath into three stages — the
// channel-parallel gather, the hidden-layer GEMM tower, and the output
// tail/response — connected by bounded channels, over a ring of N
// pre-allocated fixed-point batch planes:
//
//	Free ─► SubmitOn ─► [gather] ─► [dense GEMM] ─► [tail ► Deliver] ─┐
//	  ▲                                                               │
//	  └──────────────────── plane recycled ◄──────────────────────────┘
//
// While batch i occupies the GEMM stage, batch i+1's gather is already
// running on the next plane. The ring bounds the batches in flight, so
// backpressure propagates from a slow stage back to the submitter — which
// receives a plane from Free before it can submit — exactly as in
// pipesim's marked-graph model: a ring of N planes is N tokens circulating
// through the stage graph. The steady-state initiation interval is therefore
// the slowest stage's service time, not the sum of all stages — Snapshot
// cross-feeds the measured per-stage times into pipesim to report the
// predicted interval next to the measured one, closing the loop between the
// simulator and the real executor.
//
// Stage methods are driven through the StageEngine seam (implemented by
// *core.Engine); planes are core.BatchScratch buffers pre-sized at
// construction, so the steady-state stage loops perform no allocation.
package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/metrics"
	"microrec/internal/pipesim"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("pipeline: executor closed")

// StageEngine is the slice of the inference engine the executor drives: the
// three stage-callable pieces of the batched datapath plus plane sizing.
// *core.Engine implements it; tests substitute deterministic fakes to
// cross-check the executor's measured interval against pipesim.
type StageEngine interface {
	// EnsurePlane sizes a plane for batches of up to b queries.
	EnsurePlane(s *core.BatchScratch, b int)
	// GatherIntoPlane resolves a validated micro-batch's embedding lookups
	// into the plane's fixed-point feature rows.
	GatherIntoPlane(queries []embedding.Query, s *core.BatchScratch)
	// DenseFromPlane runs the hidden FC tower on a gathered plane.
	DenseFromPlane(b int, s *core.BatchScratch)
	// TailFromPlane runs the output layer + sigmoid, writing one prediction
	// per query into dst.
	TailFromPlane(b int, s *core.BatchScratch, dst []float32)
}

// Deliver receives a completed batch on the tail stage's goroutine: the
// payload passed to Submit and the predictions, one per submitted query.
// preds is plane-owned and only valid until Deliver returns — consume it
// (resolve futures, copy) before returning.
type Deliver func(payload interface{}, preds []float32)

// Options configures an Executor.
type Options struct {
	// Depth is the number of planes in the ring — the bound on batches in
	// flight across the three stages. Default 3 (one plane per stage);
	// minimum 2 (below that no two stages can overlap).
	Depth int
	// MaxBatch is the plane capacity: the largest batch Submit accepts.
	// Default 64.
	MaxBatch int
	// Deliver receives every completed batch. Required.
	Deliver Deliver
	// Prepare, when set, runs on the gather stage immediately before a
	// plane is filled: it receives the batch payload and the plane's query
	// headers and returns the queries still worth serving (it may filter
	// the slice in place). Returning an empty slice skips the plane's
	// datapath work entirely; Deliver is not called for such a plane. The
	// serving layer uses this as its deadline-drop hook — the last
	// admission point before gather work is committed, after any time the
	// batch spent waiting for a free plane or queued behind the stage.
	Prepare func(payload interface{}, queries []embedding.Query) []embedding.Query
	// StatsWindow is the number of recent batches retained for the
	// per-stage service-time and completion-interval statistics.
	// Default 512.
	StatsWindow int
}

// withDefaults returns o with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.Depth == 0 {
		o.Depth = 3
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 64
	}
	if o.StatsWindow == 0 {
		o.StatsWindow = 512
	}
	return o
}

// Validate checks the options after defaulting.
func (o Options) Validate() error {
	if o.Depth < 2 {
		return fmt.Errorf("pipeline: depth %d (need >= 2 planes to overlap stages)", o.Depth)
	}
	if o.MaxBatch < 1 {
		return fmt.Errorf("pipeline: max batch %d", o.MaxBatch)
	}
	if o.Deliver == nil {
		return fmt.Errorf("pipeline: nil Deliver")
	}
	if o.StatsWindow < 1 {
		return fmt.Errorf("pipeline: stats window %d", o.StatsWindow)
	}
	return nil
}

// Plane is one slot of the in-flight ring: a pre-sized fixed-point batch
// plane plus the batch riding on it. Callers only carry one from Free to
// SubmitOn.
type Plane struct {
	queries []embedding.Query // batch query headers, cap MaxBatch
	preds   []float32         // predictions, cap MaxBatch
	payload interface{}       // caller's batch handle, returned via Deliver
	entered time.Time         // when Submit handed the plane to the pipeline
	scratch core.BatchScratch
}

// Stage indices of the executor, in datapath order. Exported so observers
// (PlaneObserver) and the serving tier's flight recorder can name the stage a
// boundary timestamp belongs to.
const (
	StageGather = iota
	StageDense
	StageTail
	NumStages
)

// stageNames label the stages in snapshots, matching pipesim conventions.
var stageNames = [NumStages]string{"gather", "dense-gemm", "tail"}

// StageName returns the snapshot label of a stage index ("" out of range).
func StageName(stage int) string {
	if stage < 0 || stage >= NumStages {
		return ""
	}
	return stageNames[stage]
}

// PlaneObserver is the optional observability seam on a batch payload: when
// the payload passed to Submit implements it, each stage loop reports its
// boundary timestamps (and the gather stage its GatherObs) as the plane moves
// through. Calls arrive on the stage goroutines in datapath order —
// implementations must not block; the serving tier uses plain stores into a
// per-batch record that is only read after delivery. Payloads that do not
// implement the interface pay one type assertion per stage and nothing else.
type PlaneObserver interface {
	// ObserveStage reports one stage's service window on this plane.
	ObserveStage(stage int, start, end time.Time)
	// ObserveGather reports the gather's observability record (cold faults,
	// scatter detail); called once per plane, right after the gather stage.
	ObserveGather(obs core.GatherObs)
}

// stageMeter accumulates one stage's service observations.
type stageMeter struct {
	batches atomic.Uint64
	busyNS  atomic.Int64
	service *metrics.Rolling // per-batch service time, ns
}

func (m *stageMeter) record(now time.Time, d time.Duration) {
	m.batches.Add(1)
	m.busyNS.Add(int64(d))
	m.service.Observe(now, float64(d))
}

// Executor runs micro-batches through the staged datapath with overlapped
// stages. It owns three stage goroutines; callers must Close it.
type Executor struct {
	eng  StageEngine
	opts Options

	mu        sync.RWMutex // guards closed; never held across blocking ops
	closed    bool
	accepting sync.WaitGroup // in-flight Submits past the closed check

	free    chan *Plane
	gatherQ chan *Plane
	denseQ  chan *Plane
	tailQ   chan *Plane
	wg      sync.WaitGroup

	stages [NumStages]stageMeter
	// interval tracks per-completion pipeline-busy gaps: each batch observes
	// now - max(previous completion, its own Submit time). The entered floor
	// excludes idle time waiting for arrivals (which would measure load, not
	// the pipeline) while still charging queueing inside the pipeline, so
	// consecutive gaps telescope to busy-span/completions — the measured
	// initiation interval. An earlier scheme filtered on "batches remained in
	// flight at the previous completion" instead; on few-core hosts the OS
	// scheduler makes completions burst (the dense stage queues several
	// planes before the tail goroutine runs), and that filter kept only the
	// tiny intra-burst gaps, under-reporting the interval by ~4x at batch 1.
	interval  *metrics.Rolling
	completed atomic.Uint64
	lastDone  time.Time // tail goroutine only
	start     time.Time
}

// New builds an executor over a stage engine, pre-allocating the plane ring
// so the steady-state loop never allocates. The returned executor owns
// background goroutines; callers must Close it.
func New(eng StageEngine, opts Options) (*Executor, error) {
	if eng == nil {
		return nil, fmt.Errorf("pipeline: nil engine")
	}
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	x := &Executor{
		eng:  eng,
		opts: opts,
		// Stage channels hold up to Depth planes each, so a full ring never
		// blocks a send: the only backpressure point is plane acquisition,
		// which is exactly the marked-graph token discipline.
		free:     make(chan *Plane, opts.Depth),
		gatherQ:  make(chan *Plane, opts.Depth),
		denseQ:   make(chan *Plane, opts.Depth),
		tailQ:    make(chan *Plane, opts.Depth),
		interval: metrics.NewRolling(opts.StatsWindow),
		start:    time.Now(),
	}
	for i := range x.stages {
		x.stages[i].service = metrics.NewRolling(opts.StatsWindow)
	}
	for i := 0; i < opts.Depth; i++ {
		p := &Plane{
			queries: make([]embedding.Query, 0, opts.MaxBatch),
			preds:   make([]float32, opts.MaxBatch),
		}
		eng.EnsurePlane(&p.scratch, opts.MaxBatch)
		x.free <- p
	}
	x.wg.Add(NumStages)
	go x.gatherLoop()
	go x.denseLoop()
	go x.tailLoop()
	return x, nil
}

// Options returns the executor's effective (defaulted) options.
func (x *Executor) Options() Options { return x.opts }

// Free is the ring's free-plane channel. A receive acquires a plane, which the
// receiver must pass to SubmitOn. It is the executor's "can start service
// now" signal: the serving batcher selects on it next to its submit queue, so
// a forming batch grows exactly as long as every plane is in flight.
func (x *Executor) Free() <-chan *Plane { return x.free }

// SubmitOn copies a validated micro-batch's query headers (1 to MaxBatch of
// them, which passed Engine.ValidateQuery at admission) onto a plane received
// from Free and hands it to the gather stage. It never blocks — the stage
// queues hold a full ring. The queries slice is not retained; payload comes
// back through Deliver with the predictions. SubmitOn takes no part in the
// closed gate: its caller must have returned before Close is called.
func (x *Executor) SubmitOn(p *Plane, queries []embedding.Query, payload interface{}) {
	p.queries = append(p.queries[:0], queries...)
	p.payload = payload
	p.entered = time.Now()
	x.gatherQ <- p
}

// Submit is the blocking form: it acquires a plane from the ring (waiting
// while all Depth planes are in flight — the backpressure bound) and submits
// the batch on it.
func (x *Executor) Submit(queries []embedding.Query, payload interface{}) error {
	if len(queries) == 0 {
		return fmt.Errorf("pipeline: empty batch")
	}
	if len(queries) > x.opts.MaxBatch {
		return fmt.Errorf("pipeline: batch %d exceeds plane capacity %d", len(queries), x.opts.MaxBatch)
	}
	// Accept-gate: take the read lock only long enough to check closed and
	// register with the accepting group, then release it BEFORE the blocking
	// plane acquisition. Holding the lock across <-x.free coupled every
	// other mu user to this goroutine's backpressure wait: a pending Close
	// (writer) parked behind a ring-blocked Submit, and the RWMutex's writer
	// priority then stalled every later reader too. Close now waits on the
	// accepting group instead, which still guarantees the send below never
	// races the close of gatherQ.
	x.mu.RLock()
	if x.closed {
		x.mu.RUnlock()
		return ErrClosed
	}
	x.accepting.Add(1)
	x.mu.RUnlock()
	defer x.accepting.Done()
	// In-flight planes complete independently of this goroutine (the stage
	// loops keep draining until Close's accepting.Wait returns), so the
	// acquisition always terminates.
	x.SubmitOn(<-x.free, queries, payload)
	return nil
}

// Close stops accepting batches, drains every in-flight plane through the
// remaining stages (delivering their responses) and joins the stage
// goroutines. It is idempotent.
func (x *Executor) Close() error {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return nil
	}
	x.closed = true
	x.mu.Unlock()
	// Every Submit that saw closed==false has registered with accepting
	// before releasing the read lock, so after Wait returns no goroutine
	// will send on gatherQ again and the close below cannot race a send.
	x.accepting.Wait()
	close(x.gatherQ)
	x.wg.Wait()
	return nil
}

// gatherLoop drives stage 1: the channel-parallel batched gather into the
// plane's fixed-point feature rows. The Prepare hook runs first — this is
// the moment the plane's work is committed, so it is where a deadline-aware
// server sheds requests no longer worth gathering. A plane Prepare empties
// still traverses the ring (token discipline) but skips every engine call.
//
//microrec:noalloc
func (x *Executor) gatherLoop() {
	defer x.wg.Done()
	defer close(x.denseQ)
	for p := range x.gatherQ {
		if x.opts.Prepare != nil {
			p.queries = x.opts.Prepare(p.payload, p.queries)
		}
		if len(p.queries) == 0 {
			x.denseQ <- p
			continue
		}
		t0 := time.Now()
		x.eng.GatherIntoPlane(p.queries, &p.scratch)
		now := time.Now()
		x.stages[StageGather].record(now, now.Sub(t0))
		if ob, ok := p.payload.(PlaneObserver); ok {
			ob.ObserveStage(StageGather, t0, now)
			ob.ObserveGather(p.scratch.GatherObs())
		}
		x.denseQ <- p
	}
}

// denseLoop drives stage 2: the hidden-layer blocked GEMM tower.
//
// The stage yields before it parks on an empty queue. A goroutine parked on a
// channel is woken into the run-next slot of the P that sends to it, which
// glues a replica's dense stage to the P running its gather stage, batcher
// and clients; with a replica per core, a core the host slows down (a busy
// sibling hyperthread, stolen time) then sets the pace of the whole closed
// loop. Yielding first leaves the stage on the global run queue for whichever
// P frees up. A stage whose queue is stocked never yields and keeps its core.
// DESIGN.md, "The dense stage yields before it parks", has the measurements.
//
//microrec:noalloc
func (x *Executor) denseLoop() {
	defer x.wg.Done()
	defer close(x.tailQ)
	for {
		if len(x.denseQ) == 0 {
			runtime.Gosched()
		}
		p, ok := <-x.denseQ
		if !ok {
			return
		}
		if len(p.queries) == 0 {
			x.tailQ <- p
			continue
		}
		t0 := time.Now()
		x.eng.DenseFromPlane(len(p.queries), &p.scratch)
		now := time.Now()
		x.stages[StageDense].record(now, now.Sub(t0))
		if ob, ok := p.payload.(PlaneObserver); ok {
			ob.ObserveStage(StageDense, t0, now)
		}
		x.tailQ <- p
	}
}

// tailLoop drives stage 3: the output layer + sigmoid, response delivery,
// and plane recycling.
//
//microrec:noalloc
func (x *Executor) tailLoop() {
	defer x.wg.Done()
	for p := range x.tailQ {
		b := len(p.queries)
		if b == 0 {
			p.payload = nil
			x.free <- p
			continue
		}
		t0 := time.Now()
		x.eng.TailFromPlane(b, &p.scratch, p.preds[:b])
		now := time.Now()
		x.stages[StageTail].record(now, now.Sub(t0))
		// The observer fires before Deliver so the batch record is complete
		// by the time futures resolve.
		if ob, ok := p.payload.(PlaneObserver); ok {
			ob.ObserveStage(StageTail, t0, now)
		}
		x.opts.Deliver(p.payload, p.preds[:b])
		// Busy gap: from the later of the previous completion and this
		// batch's Submit (see the interval field for why the floor matters).
		from := x.lastDone
		if from.Before(p.entered) {
			from = p.entered
		}
		x.interval.Observe(now, float64(now.Sub(from)))
		x.lastDone = now
		x.completed.Add(1)
		// Drop batch references before recycling so the ring never pins a
		// delivered batch's memory.
		p.payload = nil
		for i := range p.queries {
			p.queries[i] = nil
		}
		p.queries = p.queries[:0]
		x.free <- p
	}
}

// InFlight reports how many planes are currently occupied by batches.
func (x *Executor) InFlight() int { return x.opts.Depth - len(x.free) }

// StageSnapshot is one stage's point-in-time service statistics.
type StageSnapshot struct {
	Name string `json:"name"`
	// Batches is the lifetime count of batches the stage served.
	Batches uint64 `json:"batches"`
	// MeanServiceUS is the rolling mean per-batch service time — the
	// stage's effective initiation interval contribution.
	MeanServiceUS float64 `json:"mean_service_us"`
	// P99ServiceUS is the rolling p99 per-batch service time.
	P99ServiceUS float64 `json:"p99_service_us"`
	// Occupancy is the fraction of recent wall time the stage spent busy
	// (rolling batch rate x mean service time, capped at 1).
	Occupancy float64 `json:"occupancy"`
}

// Snapshot is a point-in-time view of the executor.
type Snapshot struct {
	// Depth is the plane-ring size (the in-flight bound).
	Depth int `json:"depth"`
	// MaxBatch is the plane capacity.
	MaxBatch int `json:"max_batch"`
	// InFlight is the number of planes currently occupied.
	InFlight int `json:"in_flight"`
	// Completed is the lifetime count of delivered batches.
	Completed uint64 `json:"completed"`
	// Stages holds per-stage service statistics in pipeline order.
	Stages []StageSnapshot `json:"stages"`
	// MeasuredIntervalUS is the rolling mean per-completion pipeline-busy
	// gap — each batch's completion minus the later of the previous
	// completion and the batch's own submission — i.e. the measured
	// steady-state initiation interval. Idle time waiting for arrivals is
	// excluded, so the figure reflects pipeline capability, not load (0
	// until a batch has completed).
	MeasuredIntervalUS float64 `json:"measured_interval_us"`
	// PredictedIntervalUS is pipesim's steady-state interval for a
	// three-stage pipeline with the measured mean service times and this
	// ring depth — the simulator's prediction for the executor it sits
	// next to (0 until every stage has served a batch).
	PredictedIntervalUS float64 `json:"predicted_interval_us"`
	// SerialIntervalUS is the sum of the mean stage times: the interval a
	// non-overlapped (worker-pool) execution of the same stages would
	// sustain. Measured < Serial demonstrates stage overlap.
	SerialIntervalUS float64 `json:"serial_interval_us"`
}

// Snapshot summarises the executor's rolling statistics and cross-feeds the
// measured stage times into pipesim for the predicted steady-state interval.
func (x *Executor) Snapshot() Snapshot {
	now := time.Now()
	snap := Snapshot{
		Depth:     x.opts.Depth,
		MaxBatch:  x.opts.MaxBatch,
		InFlight:  x.InFlight(),
		Completed: x.completed.Load(),
		Stages:    make([]StageSnapshot, NumStages),
	}
	meansNS := make([]float64, NumStages)
	for i := range x.stages {
		m := &x.stages[i]
		s := m.service.Snapshot(now)
		occ := s.RatePerSec * s.Summary.Mean / 1e9
		if occ > 1 {
			occ = 1
		}
		snap.Stages[i] = StageSnapshot{
			Name:          stageNames[i],
			Batches:       m.batches.Load(),
			MeanServiceUS: s.Summary.Mean / 1e3,
			P99ServiceUS:  s.Summary.P99 / 1e3,
			Occupancy:     occ,
		}
		meansNS[i] = s.Summary.Mean
		snap.SerialIntervalUS += s.Summary.Mean / 1e3
	}
	snap.MeasuredIntervalUS = x.interval.Snapshot(now).Summary.Mean / 1e3
	snap.PredictedIntervalUS = PredictIntervalNS(meansNS, x.opts.Depth) / 1e3
	return snap
}

// MeanBatchServiceNS returns the lifetime mean plane service time — the sum
// over stages of busy time per served batch — or 0 before any stage has
// served one. Built on the stages' lock-free counters, it is cheap enough
// for the serving layer to call per batch as the deadline-drop headroom: a
// request whose deadline lands within one mean service of now cannot finish
// in time, so starting its gather only manufactures a late answer.
func (x *Executor) MeanBatchServiceNS() float64 {
	var total float64
	for i := range x.stages {
		n := x.stages[i].batches.Load()
		if n == 0 {
			return 0
		}
		total += float64(x.stages[i].busyNS.Load()) / float64(n)
	}
	return total
}

// PredictedIntervalNS returns pipesim's steady-state initiation interval for
// the executor's current rolling mean stage service times and ring depth — 0
// until every stage has served a batch. This is the figure the serving
// admission layer converts into a capacity (knee) estimate and a Retry-After
// hint: one interval is the time until a shedding server frees its next
// queue slot.
func (x *Executor) PredictedIntervalNS() float64 {
	now := time.Now()
	meansNS := make([]float64, NumStages)
	for i := range x.stages {
		meansNS[i] = x.stages[i].service.Snapshot(now).Summary.Mean
	}
	return PredictIntervalNS(meansNS, x.opts.Depth)
}

// PredictIntervalNS runs pipesim over a linear pipeline whose stages have the
// given service times (ns; latency == initiation interval, the executor's
// stages are not internally pipelined) and the given token-ring depth as FIFO
// depth, returning the simulated steady-state inter-completion interval. It
// returns 0 when any stage has no measurement yet. This is the same
// marked-graph recurrence the accelerator timing model evaluates, applied to
// the real executor's measured stage times.
func PredictIntervalNS(stageNS []float64, depth int) float64 {
	stages := make([]pipesim.Stage, len(stageNS))
	for i, ns := range stageNS {
		if ns <= 0 {
			return 0
		}
		stages[i] = pipesim.Stage{
			Name:       fmt.Sprintf("stage-%d", i),
			LatencyNS:  ns,
			IntervalNS: ns,
			FIFODepth:  depth,
		}
	}
	p, err := pipesim.New(stages...)
	if err != nil {
		return 0
	}
	res, err := p.Simulate(4 * pipesim.DefaultFIFODepth * len(stages))
	if err != nil {
		return 0
	}
	return res.SteadyIntervalNS
}
