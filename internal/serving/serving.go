// Package serving implements the batched online-inference subsystem: a
// work-conserving micro-batcher that coalesces concurrent predict requests
// into hardware-sized batches (a forming batch is dispatched the moment the
// drain can start serving it, and grows only while it cannot), drained by the
// server's own staged drain — gather, dense GEMM and tail stages overlapped
// over a ring of batch planes — with per-request response futures.
// Options.Pipeline.Depth is the number of batches in service. The worker-pool
// drain (Options.Pipeline.WorkerPool) calls the same three stage steps
// (drain.go) and differs only in scheduling: each of Depth workers owns one
// plane and carries its batch through all three steps back to back. Either
// way the tail step meters each batch's stage times (serviceMeter):
// headroom, capacity, Retry-After and /stats all read it. SLA admission reads
// the same host clock: it times one real full batch through the engine seam
// (calibratedBatchNS). No accelerator or storage model takes part in serving.
//
// This is the serving seam the paper argues for (§2.3): per-query serving —
// one synchronous inference per HTTP request, the TensorFlow-Serving
// baseline's pattern — leaves the engine streaming every FC weight matrix
// once per query, while a micro-batch amortises the weight traffic across
// all queries in flight. The staged drain adds the second hardware pillar
// (§4.1): while batch i occupies the GEMM stage, batch i+1's gather is
// already running, so memory latency hides behind compute. Coalescing costs a
// lightly loaded server nothing — an idle drain takes a lone request at once —
// and the backlog a saturated one can hold is validated against an SLA budget
// (ValidateSLA).
//
//	requests ──► Submit ──► micro-batcher ──free plane──► staged drain
//	   ▲                    (grows while every          (gather │ GEMM │ tail)
//	   │                     plane is in flight)                  │
//	   └──── response futures ◄───────────────────────────────────┘
package serving

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/kernels"
	"microrec/internal/metrics"
	"microrec/internal/model"
	"microrec/internal/obs"
	"microrec/internal/tieredstore"
	"microrec/internal/workload"
)

// traceRingSize is the flight recorder's span ring capacity. 4096 spans ≈
// 0.5 MiB of slots; at the default 1-in-8 sampling it holds the last ~32k
// requests' worth of traffic, comfortably covering a /trace scrape window.
const traceRingSize = 4096

// DefaultTraceSample is the default head-sampling rate of the flight
// recorder: one request in 8 is recorded.
const DefaultTraceSample = 8

// statsWindow is the number of recent queries the rolling latency and
// occupancy statistics retain.
const statsWindow = 4096

// Admission calibration: SLA admission times calibrationPasses runs of one
// full batch of uniform queries drawn with calibrationSeed and keeps the
// slowest.
const (
	calibrationPasses = 3
	calibrationSeed   = 1
)

// ErrServerClosed is returned by Submit after Close.
var ErrServerClosed = errors.New("serving: server closed")

// ErrInvalidQuery wraps a query that failed shape/range validation in
// Submit — a client fault, as opposed to an engine failure during batch
// service (a server fault).
var ErrInvalidQuery = errors.New("serving: invalid query")

// ErrOverloaded is the fast-fail shed path: Submit returns it immediately
// when Options.Admission.Shed is set and the bounded submit queue is full. Callers
// should back off for about Server.RetryAfter before retrying (the HTTP
// layer maps this to 429 with a Retry-After header).
var ErrOverloaded = errors.New("serving: overloaded, submit queue full")

// ErrExpired resolves requests whose serving deadline (Options.Admission.SLA, or an
// earlier context deadline) passed while they were still queued: the batch
// former drops them at plane-fill time instead of spending gather and GEMM
// cycles on an answer nobody is waiting for.
var ErrExpired = errors.New("serving: deadline expired before service")

// Engine is the slice of the inference engine the server drives: the four
// plane calls both drains' stage steps make, admission validation and the
// model spec SLA admission draws its calibration batch from.
// *core.Engine implements it; overload tests substitute deterministic slow
// engines to saturate the queue without depending on host speed.
//
// Engine is the mandatory seam. An engine may additionally implement the one
// optional capability declared in options.go, Tiered (an attached tiered
// backing store), which the server discovers by interface assertion and
// reports in /stats only when a store is attached.
type Engine interface {
	// EnsurePlane sizes a plane for batches of up to b queries.
	EnsurePlane(s *core.BatchScratch, b int)
	// GatherIntoPlane resolves a validated batch's embedding lookups into
	// the plane's fixed-point feature rows.
	GatherIntoPlane(queries []embedding.Query, s *core.BatchScratch)
	// DenseFromPlane runs the hidden FC tower on a gathered plane.
	DenseFromPlane(b int, s *core.BatchScratch)
	// TailFromPlane runs the output layer and sigmoid, writing one
	// prediction per query into dst.
	TailFromPlane(b int, s *core.BatchScratch, dst []float32)
	// ValidateQuery checks a query's shape and index ranges at admission.
	ValidateQuery(q embedding.Query) error
	// Spec is the served model; admission calibration draws queries from it.
	Spec() *model.Spec
}

// Compile-time capability check: the production engine implements the
// optional tier capability explicitly.
var _ Tiered = (*core.Engine)(nil)

// Result is one query's response: the prediction plus the observed
// serving-side latency.
type Result struct {
	// CTR is the predicted click-through rate in [0, 1].
	CTR float32
	// WallTime is the observed submit-to-response latency.
	WallTime time.Duration
	// BatchSize is the size of the micro-batch that served this query.
	BatchSize int
}

type outcome struct {
	res Result
	err error
}

// A request and its reply channel are recycled through requestPool: at
// serving rates the pair was the tier's only per-request garbage. The
// ownership rule that makes that safe: a stage's send on done is the last
// thing it does with the request, and only the Submit that received that
// send (or whose request never entered the queue) recycles it. A Submit that
// gave up on ctx.Done() leaves its request to the collector — a stage may
// still be holding it.
type request struct {
	q   embedding.Query
	enq time.Time
	// ctx is the submitter's context; the batch former consults it at
	// plane-fill time so a request whose caller has already gone does not
	// burn gather/GEMM cycles.
	ctx context.Context
	// deadline is the serving deadline (zero = none): the earlier of
	// enq+Options.Admission.SLA and the context deadline.
	deadline time.Time
	done     chan outcome // buffered(1): workers never block on abandoned waiters
	// sampled marks the request as flight-recorded (decided once at Submit);
	// flushed is when the batcher dispatched its micro-batch (stamped for
	// sampled requests only — it splits queue wait from batch wait).
	sampled bool
	flushed time.Time
}

var requestPool = sync.Pool{New: func() any {
	return &request{done: make(chan outcome, 1)}
}}

// recycle returns r to the pool with everything but its (drained) reply
// channel cleared, so a parked request pins neither its query nor its
// caller's context.
func (r *request) recycle() {
	*r = request{done: r.done}
	requestPool.Put(r)
}

// expired returns the error a stale request resolves with at batch-formation
// time, or nil while the request is still worth serving. cutoff is now plus
// the expected service time: a request whose deadline lands before service
// could complete is already a lost cause, so spending gather/GEMM on it only
// manufactures a late answer.
func (r *request) expired(cutoff time.Time) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if !r.deadline.IsZero() && cutoff.After(r.deadline) {
		return ErrExpired
	}
	return nil
}

// Server coalesces concurrent Submit calls into micro-batches and drains
// them through its staged drain (or a pool of run-to-completion workers).
type Server struct {
	eng  Engine
	opts Options

	mu     sync.RWMutex // guards closed vs the admission gate below
	closed bool
	// accepting counts Submits that passed the closed check but have not
	// finished their (potentially blocking) queue send. Close waits for it
	// after flipping closed and before closing the submit channel, so the
	// closed-check/send race resolves without any Submit holding a lock
	// across a blocking send.
	accepting sync.WaitGroup

	submit chan *request
	// batches is the worker-pool drain's hand-off: unbuffered, so a send
	// completes only into an idle worker's receive. nil in the staged drain.
	batches chan *planeBatch
	// free is the staged drain's ring of idle planes, and gatherQ, denseQ and
	// tailQ its stage queues (drain.go); all nil in the worker pool.
	free, gatherQ, denseQ, tailQ chan *plane
	// forming is set while the batcher holds a batch on offer; wpBusy counts
	// pool workers serving one. Both feed the load score only.
	forming atomic.Bool
	wpBusy  atomic.Int32
	// tiered is non-nil when the engine's Tiered capability reports an
	// attached backing store (/stats gains a "tiers" section).
	tiered Tiered
	// replica is this server's 1-based id inside the replicated router tier
	// (Options.Router.ReplicaID), stamped on every flight-recorder span;
	// 0 on an unrouted server.
	replica int32
	wg      sync.WaitGroup

	// Admission counters (see AdmissionStats).
	shed          atomic.Uint64
	deadlineDrops atomic.Uint64
	cancelDrops   atomic.Uint64
	late          atomic.Uint64

	// meter is the per-stage service meter both drains feed from the tail step.
	meter *serviceMeter
	// calibrate guards the one timed full batch behind SLA admission; batchNS
	// and batchErr hold its result (see calibratedBatchNS).
	calibrate sync.Once
	batchNS   float64
	batchErr  error

	latencyUS *metrics.Rolling // per-query wall latency, µs
	occupancy *metrics.Rolling // dispatched batch sizes
	// latencyHist is the lifetime log-bucketed latency histogram behind the
	// /metrics exposition's _bucket series (the Rolling window above feeds
	// the /stats quantiles; both observe the same stamps).
	latencyHist *metrics.Histogram
	// rec is the always-on flight recorder (see internal/obs); buildInfo the
	// binary's provenance, surfaced in /stats and /metrics.
	rec       *obs.Recorder
	buildInfo obs.BuildInfo
}

// New starts a server around an engine (in production *core.Engine; the
// Engine seam lets overload tests drive deterministic fakes). The returned
// server owns background goroutines; callers must Close it.
func New(eng Engine, opts Options) (*Server, error) {
	if eng == nil || eng == Engine((*core.Engine)(nil)) {
		return nil, fmt.Errorf("serving: nil engine")
	}
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		eng:    eng,
		opts:   opts,
		submit: make(chan *request, opts.Admission.QueueDepth),
		// Latencies span µs (warm single-query) to seconds (overload tails);
		// 1% relative error over [1, 10^7] µs.
		latencyHist: metrics.NewHistogram(0.01, 1e7),
		latencyUS:   metrics.NewRolling(statsWindow),
		occupancy:   metrics.NewRolling(statsWindow),
		meter:       newServiceMeter(opts.Pipeline.Depth, !opts.Pipeline.WorkerPool),
		rec:         obs.NewRecorder(traceRingSize, opts.Trace.Sample),
		buildInfo:   obs.ReadBuild(kernels.Features()),
	}
	if te, ok := eng.(Tiered); ok && te.Tier() != nil {
		s.tiered = te
	}
	s.replica = int32(opts.Router.ReplicaID)
	depth := opts.Pipeline.Depth
	if opts.Pipeline.WorkerPool {
		s.batches = make(chan *planeBatch)
		s.wg.Add(1 + depth)
		go s.batcher()
		for i := 0; i < depth; i++ {
			go s.worker()
		}
		return s, nil
	}
	// Every queue holds the whole ring, so no stage's send ever blocks.
	s.free, s.gatherQ = make(chan *plane, depth), make(chan *plane, depth)
	s.denseQ, s.tailQ = make(chan *plane, depth), make(chan *plane, depth)
	for i := 0; i < depth; i++ {
		s.free <- s.newPlane()
	}
	s.wg.Add(4)
	go s.batcher()
	go s.gatherLoop()
	go s.denseLoop()
	go s.tailLoop()
	return s, nil
}

// Submit enqueues one query and blocks until its micro-batch has been
// served, the context is cancelled, or the server closes. Malformed queries
// are rejected immediately without joining a batch. With Options.Admission.Shed set it
// instead fails fast with ErrOverloaded when the submit queue is full; with
// a serving deadline (Options.Admission.SLA or a context deadline) it fails with
// ErrExpired if the deadline passes before the request reaches a plane.
func (s *Server) Submit(ctx context.Context, q embedding.Query) (Result, error) {
	if err := s.eng.ValidateQuery(q); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	req := requestPool.Get().(*request)
	req.q, req.ctx, req.enq = q, ctx, time.Now()
	req.sampled = s.rec.Sample()
	if s.opts.Admission.SLA > 0 {
		req.deadline = req.enq.Add(s.opts.Admission.SLA)
	}
	if d, ok := ctx.Deadline(); ok && (req.deadline.IsZero() || d.Before(req.deadline)) {
		req.deadline = d
	}
	if err := s.enqueue(ctx, req); err != nil {
		req.recycle()
		return Result{}, err
	}
	select {
	case out := <-req.done:
		deadline := req.deadline
		req.recycle()
		if out.err == nil && !deadline.IsZero() && time.Now().After(deadline) {
			// The batch completed, but past this request's deadline: the
			// answer is late no matter how quickly the caller drains it.
			// Deadline-aware dropping minimises these (the work was already
			// spent); the counter tracks the residue.
			s.late.Add(1)
			return Result{}, ErrExpired
		}
		return out.res, out.err
	case <-ctx.Done():
		// The query is already in a batch; the buffered done channel lets
		// the worker complete it without us.
		return Result{}, ctx.Err()
	}
}

// enqueue is the admission gate. The closed check and the in-flight
// registration happen under a briefly held read lock; the potentially
// blocking queue send happens outside any lock, so Close's write-lock
// acquisition never couples to queue backpressure (it waits on the accepting
// gate instead, which the still-running batcher is guaranteed to drain).
func (s *Server) enqueue(ctx context.Context, req *request) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrServerClosed
	}
	s.accepting.Add(1)
	s.mu.RUnlock()
	defer s.accepting.Done()

	if s.opts.Admission.Shed {
		select {
		case s.submit <- req:
			return nil
		default:
			s.shed.Add(1)
			s.recordRejected(req, obs.VerdictShed)
			return ErrOverloaded
		}
	}
	select {
	case s.submit <- req:
		return nil
	case <-ctx.Done():
		// Cancelled while blocked at the gate: never queued, so plane fill
		// never sees it; count it here.
		s.cancelDrops.Add(1)
		s.recordRejected(req, obs.VerdictCanceled)
		return ctx.Err()
	}
}

// recordRejected records the span of a sampled request the gate turned away.
func (s *Server) recordRejected(req *request, verdict uint8) {
	if req.sampled {
		s.rec.Record(obs.Span{
			Start:      req.enq.UnixNano(),
			EndToEndNS: int64(time.Since(req.enq)),
			Replica:    s.replica,
			Verdict:    verdict,
		})
	}
}

// Close stops accepting queries, drains every in-flight request — through
// the remaining stages in the staged drain — and waits for the background
// goroutines to exit. No accepted request is dropped. It is
// idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// Every Submit that won admission before the flag flipped holds a slot
	// in the accepting gate; the batcher keeps draining the queue until the
	// gate empties, so those sends complete and no sender can touch the
	// channel after it closes.
	s.accepting.Wait()
	close(s.submit)
	// The batcher dispatches what it still holds and closes its hand-off;
	// the workers, or the stage loops one after another, serve what they
	// hold and exit.
	s.wg.Wait()
	return nil
}

// drainQueued non-blockingly moves already-queued requests into pending, up
// to MaxBatch. The bool is false once the submit channel is closed and
// empty.
func (s *Server) drainQueued(pending []*request) ([]*request, bool) {
	for len(pending) < s.opts.Batching.MaxBatch {
		select {
		case req, ok := <-s.submit:
			if !ok {
				return pending, false
			}
			pending = append(pending, req)
		default:
			return pending, true
		}
	}
	return pending, true
}

// resolveExpired classifies one request at service time: nil while it is
// still worth serving; otherwise its future is resolved with the error, the
// matching drop counter is bumped, and the error is returned.
func (s *Server) resolveExpired(r *request, cutoff time.Time) error {
	err := r.expired(cutoff)
	if err == nil {
		return nil
	}
	verdict := obs.VerdictCanceled
	if errors.Is(err, ErrExpired) {
		s.deadlineDrops.Add(1)
		verdict = obs.VerdictExpired
	} else {
		s.cancelDrops.Add(1)
	}
	if r.sampled {
		now := time.Now()
		sp := obs.Span{
			Start:      r.enq.UnixNano(),
			EndToEndNS: int64(now.Sub(r.enq)),
			Replica:    s.replica,
			Verdict:    verdict,
		}
		// A dropped request's whole life is queue + batch wait: no stage was
		// ever entered.
		sp.QueueNS = int64(r.flushed.Sub(r.enq))
		sp.BatchWaitNS = int64(now.Sub(r.flushed))
		s.rec.Record(sp)
	}
	r.done <- outcome{err: err}
	return err
}

// complete finishes one served batch: serving metrics, flight-recorder spans
// for its sampled requests, and the response future of every request. preds
// is plane-owned and only valid during the call.
func (s *Server) complete(pb *planeBatch, preds []float32) {
	// Record stats before resolving any future, so a Stats() call racing a
	// just-returned Submit always sees the batch.
	now := time.Now()
	batch := pb.reqs
	s.occupancy.Observe(now, float64(len(batch)))
	for _, r := range batch {
		lat := now.Sub(r.enq).Seconds() * 1e6
		s.latencyUS.Observe(now, lat)
		s.latencyHist.Observe(lat)
	}
	s.recordSpans(pb, now)
	for i, r := range batch {
		r.done <- outcome{res: Result{
			CTR:       preds[i],
			WallTime:  now.Sub(r.enq),
			BatchSize: len(batch),
		}}
	}
}

// recordSpans writes the batch's sampled requests into the flight recorder.
// now is the same stamp the latency metrics observed, so a span's EndToEndNS
// and the rolling latency window agree exactly. The stage segments come from
// the batch's stamps and are shared by every request in the batch — a
// request's span is its own queue/batch waits followed by the batch's service
// timeline.
func (s *Server) recordSpans(pb *planeBatch, now time.Time) {
	start, end := &pb.stageStart, &pb.stageEnd
	for _, r := range pb.reqs {
		if !r.sampled {
			continue
		}
		sp := obs.Span{
			Start:      r.enq.UnixNano(),
			EndToEndNS: int64(now.Sub(r.enq)),
			Batch:      int32(len(pb.reqs)),
			Replica:    s.replica,
			Verdict:    obs.VerdictOK,
		}
		// Both drains stamp flushed at dispatch, before any path reaches here.
		// Batch wait runs from dispatch to gather entry; inter-stage waits are
		// the gaps between one stage's exit and the next one's entry
		// (zero-width in the worker pool, which runs the steps back to back).
		flushed := r.flushed
		sp.QueueNS = int64(flushed.Sub(r.enq))
		sp.BatchWaitNS = int64(start[stageGather].Sub(flushed))
		sp.GatherNS = int64(end[stageGather].Sub(start[stageGather]))
		sp.DenseWaitNS = int64(start[stageDense].Sub(end[stageGather]))
		sp.DenseNS = int64(end[stageDense].Sub(start[stageDense]))
		sp.TailWaitNS = int64(start[stageTail].Sub(end[stageDense]))
		sp.TailNS = int64(end[stageTail].Sub(start[stageTail]))
		sp.ColdFaults = int32(pb.coldFaults)
		s.rec.Record(sp)
	}
}

// Trace snapshots up to `last` recent spans from the flight recorder (last
// <= 0 means the whole ring), dropping spans that started before `since` when
// it is non-zero — the data behind GET /trace.
func (s *Server) Trace(last int, since time.Time) []obs.Span {
	return s.rec.Snapshot(last, since)
}

// QueueLen is the submit queue's current occupancy — the queueing half of the
// router's least-loaded score. One channel-length read; safe at any rate.
func (s *Server) QueueLen() int { return len(s.submit) }

// InFlightBatches counts the micro-batches the replica has committed to: the
// one on offer in the batcher, if any, plus those in service.
func (s *Server) InFlightBatches() int {
	n := s.inService()
	if s.forming.Load() {
		n++
	}
	return n
}

// inService counts the batches in service: occupied planes, or busy pool
// workers.
func (s *Server) inService() int {
	if s.opts.Pipeline.WorkerPool {
		return int(s.wpBusy.Load())
	}
	return s.opts.Pipeline.Depth - len(s.free)
}

// LoadScore is the router's least-loaded scoring input, in queued-request
// units: the submit queue's occupancy plus the in-flight batches weighted by
// the flush size (each stands for up to MaxBatch requests the replica serves
// before a newly routed one).
//
//	score = QueueLen + MaxBatch · InFlightBatches
func (s *Server) LoadScore() int {
	return s.QueueLen() + s.opts.Batching.MaxBatch*s.InFlightBatches()
}

// LoadCapacity is the LoadScore of a saturated replica — submit queue full,
// a full batch on offer and every plane (or pool worker) holding one — so
// LoadScore/LoadCapacity, the occupancy the /stats router section reports per
// replica, never exceeds 1.
func (s *Server) LoadCapacity() int {
	return s.opts.Admission.QueueDepth + s.opts.Batching.MaxBatch*(1+s.opts.Pipeline.Depth)
}

// HotCacheCounts reports the lifetime hit/miss counters of the tiered
// store's frequency window; ok is false on an all-DRAM engine. The router's
// affinity hit-rate baseline needs the raw counters — a rate alone cannot be
// windowed into a since-mark delta.
func (s *Server) HotCacheCounts() (hits, misses int64, ok bool) {
	st := s.tierStore()
	if st == nil {
		return 0, 0, false
	}
	w := st.Window().Stats()
	return w.Hits, w.Misses, true
}

// tierStore is the engine's tiered store, nil when the tier hooks are not
// engaged.
func (s *Server) tierStore() *tieredstore.Store {
	if s.tiered == nil {
		return nil
	}
	return s.tiered.Tier()
}

// LatencySummary is the rolling latency distribution in µs.
type LatencySummary struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// HotCacheStats is the serving-side view of the tiered store's frequency
// window: capacity, occupancy and the hits and misses of the rows read.
type HotCacheStats = tieredstore.WindowStats

// TierStats is the serving-side view of the tiered backing store: per-tier
// residency, read split and promotion/demotion counters.
type TierStats = tieredstore.Snapshot

// BuildInfo is the binary's build/version provenance (git revision, Go
// toolchain, kernel dispatch) as surfaced in /stats and /metrics.
type BuildInfo = obs.BuildInfo

// TraceStats is the flight recorder's own counters: ring size, sampling rate,
// arrivals and recorded spans.
type TraceStats = obs.Stats

// ReplicaStats is one replica's row in the /stats "router" section. The
// routing counters come from the router's scoreboard; the serving figures are
// the replica's own Stats condensed to the numbers a routing decision (or a
// capacity dashboard) reads.
type ReplicaStats struct {
	// ID is the replica's 1-based id (Span.Replica on its traces).
	ID int `json:"id"`
	// Routed counts requests the router sent to this replica; InFlight is
	// the number currently between route and completion.
	Routed   uint64 `json:"routed"`
	InFlight int64  `json:"in_flight"`
	// QueueDepth and PipelineInFlight are the live load-score inputs
	// (Server.QueueLen, Server.InFlightBatches); LoadScore combines them and
	// Occupancy normalises the score by the replica's LoadCapacity.
	QueueDepth       int     `json:"queue_depth"`
	PipelineInFlight int     `json:"pipeline_in_flight"`
	LoadScore        int     `json:"load_score"`
	Occupancy        float64 `json:"occupancy"`
	// Queries/QPS/P99US echo the replica's own rolling serving stats.
	Queries uint64  `json:"queries"`
	QPS     float64 `json:"qps"`
	P99US   float64 `json:"p99_us"`
	// HitRate is the hit rate of the replica's tiered-store frequency window
	// (0 on an all-DRAM engine) — the per-replica view behind the affinity
	// lift.
	HitRate float64 `json:"hit_rate"`
}

// PolicyDecisionStats counts one policy's routing decisions. Every policy the
// router has used appears, so a policy switch mid-run (the loadtest affinity
// comparison does this) leaves both policies' volumes visible.
type PolicyDecisionStats struct {
	Policy string `json:"policy"`
	// Total is the lifetime decision count.
	Total uint64 `json:"total"`
}

// RouterStats is the /stats "router" section: the replicated tier's routing
// scoreboard. It is populated by internal/router's merged Stats — the Server
// itself never fills Stats.Router (an unrouted server reports none).
type RouterStats struct {
	// Policy is the active routing policy ("round-robin", "least-loaded",
	// "affinity"); Replicas the member replica count.
	Policy   string `json:"policy"`
	Replicas int    `json:"replicas"`
	// Decisions breaks routing decisions down per policy.
	Decisions []PolicyDecisionStats `json:"decisions"`
	// PerReplica is the per-replica scoreboard, ordered by replica id.
	PerReplica []ReplicaStats `json:"per_replica"`
	// AggregateHitRate is the replicas' pooled frequency-window hit rate
	// (sum hits / sum lookups). BaselineHitRate and HitRateDelta are
	// populated once a baseline mark is set (Router.MarkHitRateBaseline):
	// baseline is the pooled rate before the mark, aggregate then covers
	// only post-mark traffic, and the delta is their difference — the
	// affinity lift measurement.
	AggregateHitRate float64 `json:"aggregate_hit_rate"`
	BaselineHitRate  float64 `json:"baseline_hit_rate"`
	HitRateDelta     float64 `json:"hit_rate_delta"`
}

// AdmissionStats is the /stats view of the admission gate: current queue
// pressure, the shed and drop counters, and the server's own estimate of its
// knee — the offered load beyond which it starts shedding.
type AdmissionStats struct {
	// QueueDepth is the submit queue's current occupancy; QueueCapacity is
	// its bound (Options.Admission.QueueDepth).
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Shedding reports whether the fast-fail shed path is enabled.
	Shedding bool `json:"shedding"`
	// SLAMS is the per-request serving deadline in ms (0 = none).
	SLAMS float64 `json:"sla_ms,omitempty"`
	// Shed counts Submits fast-failed with ErrOverloaded (queue full).
	Shed uint64 `json:"shed"`
	// DeadlineDrops counts requests dropped at plane-fill time because
	// their serving deadline could not be met; CancelDrops counts those
	// whose context was cancelled before service, at the gate (blocked on
	// a full queue) or at plane fill. Neither spent any gather or GEMM
	// cycles.
	DeadlineDrops uint64 `json:"deadline_drops"`
	CancelDrops   uint64 `json:"cancel_drops"`
	// LateCompletions counts requests that were served but whose batch
	// completed after their deadline — work the deadline-aware dropper
	// failed to save (its headroom estimate lagged). They fail with
	// ErrExpired like drops, but their gather/GEMM cycles were spent.
	LateCompletions uint64 `json:"late_completions"`
	// KneeQPS is the current capacity estimate (see Server.CapacityQPS);
	// 0 until the drain has served a batch.
	KneeQPS float64 `json:"knee_qps"`
	// RetryAfterMS is the backoff hint handed to shed clients.
	RetryAfterMS float64 `json:"retry_after_ms"`
}

// Stats is a point-in-time view of the server's rolling serving statistics.
type Stats struct {
	// Configuration echo. Mode is "pipeline" or "worker-pool".
	Mode     string `json:"mode"`
	MaxBatch int    `json:"max_batch"`
	// Lifetime counters.
	Queries uint64 `json:"queries"`
	Batches uint64 `json:"batches"`
	// Rolling-window statistics (last 4096 queries).
	QPS            float64        `json:"qps"`
	LatencyUS      LatencySummary `json:"latency_us"`
	MeanBatch      float64        `json:"mean_batch"`
	BatchOccupancy float64        `json:"batch_occupancy"`
	// Admission reports the admission gate: queue pressure, shed and
	// deadline-drop counters, and the knee estimate.
	Admission AdmissionStats `json:"admission"`
	// Pipeline reports the drain's service meter: batches in service,
	// per-stage service times and the batch interval (either drain; nil only
	// in a router-merged snapshot without a primary replica).
	Pipeline *PipelineStats `json:"pipeline,omitempty"`
	// HotCache reports the tiered store's frequency window (nil on
	// all-DRAM engines).
	HotCache *HotCacheStats `json:"hotcache,omitempty"`
	// Tiers reports the tiered backing store when one is attached (nil on
	// all-DRAM engines).
	Tiers *TierStats `json:"tiers,omitempty"`
	// Router reports the replicated router tier when the stats come from a
	// router-merged snapshot (internal/router fills it; a Server's own Stats
	// never does — nil on an unrouted server).
	Router *RouterStats `json:"router,omitempty"`
	// Trace reports the flight recorder: ring size, head-sampling rate,
	// arrivals and recorded spans (the spans themselves are on /trace).
	Trace TraceStats `json:"trace"`
	// LatencyHistUS summarises the lifetime log-bucketed latency histogram
	// behind the /metrics _bucket series (the rolling LatencyUS above covers
	// only the last 4096 queries).
	LatencyHistUS metrics.HistogramSnapshot `json:"latency_hist_us"`
	// BuildInfo is the binary's build/version provenance.
	BuildInfo BuildInfo `json:"build_info"`
}

// Mode reports the server's drain mode: "pipeline" or "worker-pool".
func (s *Server) Mode() string {
	if s.opts.Pipeline.WorkerPool {
		return "worker-pool"
	}
	return "pipeline"
}

// Stats snapshots the rolling serving statistics. The pipeline section, knee
// estimate and Retry-After hint come from one read of the service meter.
func (s *Server) Stats() Stats {
	now := time.Now()
	lat := s.latencyUS.Snapshot(now)
	occ := s.occupancy.Snapshot(now)
	pl, means := s.meter.snapshot(now)
	predNS := s.meter.predictNS(means)
	pl.Depth, pl.MaxBatch, pl.InFlight = s.opts.Pipeline.Depth, s.opts.Batching.MaxBatch, s.inService()
	pl.PredictedIntervalUS = predNS / 1e3
	st := Stats{
		Mode:     s.Mode(),
		MaxBatch: s.opts.Batching.MaxBatch,
		Queries:  lat.Total,
		Batches:  occ.Total,
		QPS:      lat.RatePerSec,
		LatencyUS: LatencySummary{
			Mean: lat.Summary.Mean,
			P50:  lat.Summary.P50,
			P95:  lat.Summary.P95,
			P99:  lat.Summary.P99,
			Max:  lat.Summary.Max,
		},
		MeanBatch:     occ.Summary.Mean,
		Trace:         s.rec.Stats(),
		LatencyHistUS: s.latencyHist.Snapshot(),
		BuildInfo:     s.buildInfo,
		Admission: AdmissionStats{
			QueueDepth:      len(s.submit),
			QueueCapacity:   s.opts.Admission.QueueDepth,
			Shedding:        s.opts.Admission.Shed,
			SLAMS:           float64(s.opts.Admission.SLA) / float64(time.Millisecond),
			Shed:            s.shed.Load(),
			DeadlineDrops:   s.deadlineDrops.Load(),
			CancelDrops:     s.cancelDrops.Load(),
			LateCompletions: s.late.Load(),
			KneeQPS:         s.capacityQPS(predNS),
			RetryAfterMS:    float64(s.retryAfter(predNS)) / float64(time.Millisecond),
		},
		Pipeline: pl,
	}
	if st.MaxBatch > 0 {
		st.BatchOccupancy = st.MeanBatch / float64(st.MaxBatch)
	}
	if store := s.tierStore(); store != nil {
		snap := store.Snapshot()
		window := snap.Window
		st.Tiers, st.HotCache = &snap, &window
	}
	return st
}

// CapacityQPS estimates the server's steady-state serving capacity — the
// knee the open-loop load harness measures — as MaxBatch queries per
// predicted steady-state batch interval, the closed form over the service
// meter's rolling mean stage times. It returns 0 until the drain has served
// a batch.
func (s *Server) CapacityQPS() float64 { return s.capacityQPS(s.meter.predictNS(s.meter.means())) }

func (s *Server) capacityQPS(intervalNS float64) float64 {
	if intervalNS <= 0 {
		return 0
	}
	return float64(s.opts.Batching.MaxBatch) * 1e9 / intervalNS
}

// RetryAfter is the backoff hint a shedding server hands rejected clients:
// one predicted steady-state batch interval — the time until the drain frees
// the next queue slot — or 1ms before the drain has served a batch. It reads
// three O(1) rolling means and never calls the engine, so every shed
// response can afford it, even while the engine is stalled.
func (s *Server) RetryAfter() time.Duration { return s.retryAfter(s.meter.predictNS(s.meter.means())) }

func (s *Server) retryAfter(intervalNS float64) time.Duration {
	if intervalNS > 0 {
		return time.Duration(intervalNS)
	}
	return time.Millisecond
}

// ValidateSLA checks a tail-latency budget for any *admitted* query against
// the backlog the server itself can hold ahead of it: full batches in the
// submit queue, on offer and in service (see admittedNS). There is no
// window term — a batch forms only while that backlog is being served, so the
// formation wait is part of it.
func (s *Server) ValidateSLA(budget time.Duration) error {
	if budget <= 0 {
		return fmt.Errorf("serving: latency budget %v", budget)
	}
	worst, err := s.admittedNS()
	if err != nil {
		return err
	}
	if worst > float64(budget) {
		return fmt.Errorf("serving: worst-case admitted latency %v (%d queued batches on %d workers) exceeds budget %v",
			time.Duration(worst), s.backlogBatches(), s.drainWorkers(), budget)
	}
	return nil
}

// AdmittedLatencyBound returns the worst-case latency of any admitted query:
// the figure ValidateSLA enforces.
func (s *Server) AdmittedLatencyBound() (time.Duration, error) {
	ns, err := s.admittedNS()
	return time.Duration(ns), err
}

// admittedNS bounds the latency of a freshly admitted query: the
// backlog ahead of it drains in ceil(backlog/workers) rounds of full-batch
// service, then its own batch is served.
//
//	bound = (ceil(backlogBatches/drainWorkers) + 1) · calibratedBatchNS
func (s *Server) admittedNS() (float64, error) {
	ns, err := s.calibratedBatchNS()
	if err != nil {
		return 0, err
	}
	workers := s.drainWorkers()
	rounds := (s.backlogBatches() + workers - 1) / workers
	return float64(rounds+1) * ns, nil
}

// calibratedBatchNS is the full-batch service time SLA admission prices the
// backlog with, measured on this host the first time it is needed: MaxBatch
// uniform queries, validated like any Submit, run calibrationPasses times
// through the same stage calls a drain makes — gather, dense and tail — on a
// private plane.
// The slowest pass is kept, so a first pass against cold caches or cold
// pages sets the figure; on a tiered engine its reads count in the store's
// frequency window like any batch's. It runs once per server; concurrent
// callers wait for it.
func (s *Server) calibratedBatchNS() (float64, error) {
	s.calibrate.Do(func() { s.batchNS, s.batchErr = s.timeBatch() })
	return s.batchNS, s.batchErr
}

func (s *Server) timeBatch() (float64, error) {
	b := s.opts.Batching.MaxBatch
	gen, err := workload.NewGenerator(s.eng.Spec(), workload.Uniform, calibrationSeed)
	if err != nil {
		return 0, fmt.Errorf("serving: calibration batch: %w", err)
	}
	queries := make([]embedding.Query, b)
	for i := range queries {
		queries[i] = gen.Next()
		if err := s.eng.ValidateQuery(queries[i]); err != nil {
			return 0, fmt.Errorf("serving: calibration query %d: %w", i, err)
		}
	}
	var plane core.BatchScratch
	s.eng.EnsurePlane(&plane, b)
	preds := make([]float32, b)
	var slowest time.Duration
	for pass := 0; pass < calibrationPasses; pass++ {
		start := time.Now()
		s.eng.GatherIntoPlane(queries, &plane)
		s.eng.DenseFromPlane(b, &plane)
		s.eng.TailFromPlane(b, &plane, preds)
		slowest = max(slowest, time.Since(start))
	}
	return float64(slowest), nil
}

// backlogBatches bounds the batches ahead of a freshly admitted query's own:
// ceil(QueueDepth/MaxBatch) in the submit queue, the one on offer, and one
// per plane (or pool worker) in service.
func (s *Server) backlogBatches() int {
	queued := (s.opts.Admission.QueueDepth + s.opts.Batching.MaxBatch - 1) / s.opts.Batching.MaxBatch
	return queued + 1 + s.opts.Pipeline.Depth
}

// drainWorkers is the batch-drain parallelism the SLA backlog model divides
// by: the worker pool drains Depth batches concurrently, but no more than
// GOMAXPROCS of them run at once; the pipeline is modeled conservatively as
// one worker with the full (un-overlapped) batch service time — stage
// overlap only shortens the real drain, so the worst-case admitted bound
// stays valid.
func (s *Server) drainWorkers() int {
	if s.opts.Pipeline.WorkerPool {
		return min(s.opts.Pipeline.Depth, runtime.GOMAXPROCS(0))
	}
	return 1
}
