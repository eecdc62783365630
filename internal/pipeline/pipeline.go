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
// receives a plane from Free before it can submit: a ring of N planes is N
// tokens circulating through the stage graph. The steady-state initiation
// interval is therefore the slowest stage's service time, or the sum of the
// stages over N when the ring binds first — not the sum of all stages. The
// executor keeps no statistics of its own: each stage reports its boundary
// stamps to the batch payload (PlaneObserver), and the serving tier meters
// service time from those.
//
// Stage methods are driven through the StageEngine seam (implemented by
// *core.Engine); planes are core.BatchScratch buffers pre-sized at
// construction, so the steady-state stage loops perform no allocation.
package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"microrec/internal/core"
	"microrec/internal/embedding"
)

// StageEngine is the slice of the inference engine the executor drives: the
// three stage-callable pieces of the batched datapath plus plane sizing.
// *core.Engine implements it; tests substitute deterministic fakes with known
// stage times.
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
// payload passed to SubmitOn and the predictions, one per submitted query.
// preds is plane-owned and only valid until Deliver returns — consume it
// (resolve futures, copy) before returning.
type Deliver func(payload interface{}, preds []float32)

// Options configures an Executor.
type Options struct {
	// Depth is the number of planes in the ring — the bound on batches in
	// flight across the three stages. Default 3 (one plane per stage);
	// minimum 2 (below that no two stages can overlap).
	Depth int
	// MaxBatch is the plane capacity: the largest batch SubmitOn accepts.
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
}

// withDefaults returns o with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.Depth == 0 {
		o.Depth = 3
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 64
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
	return nil
}

// Plane is one slot of the in-flight ring: a pre-sized fixed-point batch
// plane plus the batch riding on it. Callers only carry one from Free to
// SubmitOn.
type Plane struct {
	queries []embedding.Query // batch query headers, cap MaxBatch
	preds   []float32         // predictions, cap MaxBatch
	payload interface{}       // caller's batch handle, returned via Deliver
	scratch core.BatchScratch
}

// Stage indices of the executor, in datapath order. Exported so observers
// (PlaneObserver) and the serving tier's meter and flight recorder can name
// the stage a boundary timestamp belongs to.
const (
	StageGather = iota
	StageDense
	StageTail
	NumStages
)

// PlaneObserver is the optional observability seam on a batch payload: when
// the payload passed to SubmitOn implements it, each stage loop reports its
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

// Executor runs micro-batches through the staged datapath with overlapped
// stages. It owns three stage goroutines; callers must Close it.
type Executor struct {
	eng  StageEngine
	opts Options

	free      chan *Plane
	gatherQ   chan *Plane
	denseQ    chan *Plane
	tailQ     chan *Plane
	wg        sync.WaitGroup
	closeOnce sync.Once
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
		free:    make(chan *Plane, opts.Depth),
		gatherQ: make(chan *Plane, opts.Depth),
		denseQ:  make(chan *Plane, opts.Depth),
		tailQ:   make(chan *Plane, opts.Depth),
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

// Free is the ring's free-plane channel. A receive acquires a plane, which the
// receiver must pass to SubmitOn. It is the executor's "can start service
// now" signal: the serving batcher selects on it next to its submit queue, so
// a forming batch grows exactly as long as every plane is in flight.
func (x *Executor) Free() <-chan *Plane { return x.free }

// SubmitOn copies a validated micro-batch's query headers (1 to MaxBatch of
// them, which passed Engine.ValidateQuery at admission) onto a plane received
// from Free and hands it to the gather stage. It never blocks — the stage
// queues hold a full ring. The queries slice is not retained; payload comes
// back through Deliver with the predictions. Every SubmitOn must return before
// Close is called.
func (x *Executor) SubmitOn(p *Plane, queries []embedding.Query, payload interface{}) {
	p.queries = append(p.queries[:0], queries...)
	p.payload = payload
	x.gatherQ <- p
}

// Close drains every in-flight plane through the remaining stages (delivering
// their responses) and joins the stage goroutines. It is idempotent.
func (x *Executor) Close() error {
	x.closeOnce.Do(func() {
		close(x.gatherQ)
		x.wg.Wait()
	})
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
		if ob, ok := p.payload.(PlaneObserver); ok {
			ob.ObserveStage(StageGather, t0, time.Now())
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
		if ob, ok := p.payload.(PlaneObserver); ok {
			ob.ObserveStage(StageDense, t0, time.Now())
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
		// The observer fires before Deliver so the batch record is complete
		// by the time futures resolve.
		if ob, ok := p.payload.(PlaneObserver); ok {
			ob.ObserveStage(StageTail, t0, time.Now())
		}
		x.opts.Deliver(p.payload, p.preds[:b])
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
