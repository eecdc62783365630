// Package cluster implements the sharded serving tier: the model's embedding
// tables are partitioned across N gather shards (balanced by bytes gathered
// per query), each admitted micro-batch is scattered to every shard, each
// shard gathers its table subset into a shard-local partial plane, and the
// coordinator merges the partials' feature columns into one plane before the
// FC stack runs once. Tables write disjoint feature columns, so the merged
// plane — and therefore every prediction — is bit-identical to the
// single engine's stage calls by construction.
//
// This is MicroRec's channel-parallelism argument applied one level up: the
// accelerator spreads tables across memory banks so lookups resolve in
// parallel; the tier spreads them across engine shards so each shard's gather
// is a fraction of the whole, and the tier's gather time is the slowest
// shard's (max over shards), not the sum. The fan-out/fan-in plane protocol —
// scatter the query headers, gather partial planes, merge column spans — is
// the seam a future multi-node backend replaces with RPC while keeping the
// coordinator unchanged.
//
//	            ┌─► shard 0: gather tables₀ ─► partial plane ─┐
//	micro-batch ├─► shard 1: gather tables₁ ─► partial plane ─┼─► merge ─► dense GEMM ─► tail
//	 (scatter)  └─► shard 2: gather tables₂ ─► partial plane ─┘  (fan-in, straggler-timed)
//
// A Cluster implements the serving layer's Engine seam, so the
// micro-batcher, both drains, SLA admission and the overload layer all drive
// a sharded tier exactly as they drive a single engine — GatherIntoPlane is
// simply the scatter/gather round. SLA admission times a real batch through
// that same round, so the bound it enforces carries the straggler wait and
// the merge, not a model of them.
//
// Each shard owns a ring of RingDepth pre-allocated partial planes (a
// channel of free planes: the bound on its outstanding partials), and the
// coordinator merges partials in completion order, so a fast shard's
// columns land while stragglers still gather; the merge-wait histogram (last
// minus first shard completion) and the per-batch imbalance ratio (max/mean
// shard service) quantify how balanced the partition really is under live
// traffic.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/metrics"
	"microrec/internal/model"
	"microrec/internal/tieredstore"
)

// statsWindow is the number of recent batches retained for the rolling
// per-shard service and imbalance statistics.
const statsWindow = 512

// Options configures a Cluster. The zero value of every field but Shards gets
// a sensible default.
type Options struct {
	// Shards is the requested shard count (>= 1). The effective count is
	// capped at the model's table count; Shards == 1 still runs the
	// scatter/gather protocol over one shard (useful for testing the
	// protocol, but NewServer callers should prefer the plain engine).
	Shards int
	// MaxBatch is the partial-plane capacity — the largest micro-batch one
	// scatter/gather round carries. Default 64.
	MaxBatch int
	// RingDepth is each shard's partial-plane ring size: the bound on that
	// shard's outstanding partials (a shard can gather for the next
	// in-flight batch while the coordinator still merges its previous one).
	// Default 2.
	RingDepth int
}

// withDefaults returns o with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.MaxBatch == 0 {
		o.MaxBatch = 64
	}
	if o.RingDepth == 0 {
		o.RingDepth = 2
	}
	return o
}

// Validate checks the options after defaulting.
func (o Options) Validate() error {
	if o.Shards < 1 {
		return fmt.Errorf("cluster: shard count %d (want >= 1)", o.Shards)
	}
	if o.MaxBatch < 1 {
		return fmt.Errorf("cluster: max batch %d", o.MaxBatch)
	}
	if o.RingDepth < 1 {
		return fmt.Errorf("cluster: ring depth %d", o.RingDepth)
	}
	return nil
}

// scatterTask is one micro-batch's work order for one shard.
type scatterTask struct {
	queries []embedding.Query
	done    chan<- shardDone
}

// shardDone is a shard's completion report: the filled partial plane, the
// gather service time, and when the gather finished (stamped on the shard
// worker, so the coordinator's merge cost never inflates straggler metrics).
type shardDone struct {
	sh        *shard
	plane     *core.BatchScratch
	serviceNS int64
	doneAt    time.Time
}

// shard is one gather replica: a disjoint table subset, the feature columns
// those tables write, and its ring of free partial planes.
type shard struct {
	id     int
	tables []int
	spans  []core.ColSpan
	free   chan *core.BatchScratch
	tasks  chan scatterTask

	batches atomic.Uint64
	busyNS  atomic.Int64
	service *metrics.Rolling // per-batch gather service time, ns
}

// Cluster is the sharded tier's coordinator. It implements the serving
// layer's Engine seam over a single built *core.Engine: the FC stack, the
// spec and validation delegate to the engine; only the gather is
// scattered. The engine stays immutable and shared — shards are views onto
// its storage, not copies — so the tier costs planes, not a second parameter
// image. On a tiered engine every shard reads through the engine's one store,
// whose frequency window records the reads of all of them.
type Cluster struct {
	eng    *core.Engine
	opts   Options
	shards []*shard

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup

	batches     atomic.Uint64
	mergeWaitUS *metrics.Histogram
	imbalance   *metrics.Rolling
}

// New partitions the model's tables with shardTables and starts one gather
// worker per shard. The returned cluster owns background goroutines; callers
// must Close it after all inference calls have returned (a serving.Server
// created with Options.Shards does this itself).
func New(eng *core.Engine, opts Options) (*Cluster, error) {
	if eng == nil {
		return nil, fmt.Errorf("cluster: nil engine")
	}
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	parts := shardTables(eng.Spec(), opts.Shards)
	c := &Cluster{
		eng:  eng,
		opts: opts,
		// Merge waits span sub-µs (balanced shards) to ms (stragglers under
		// contention); 1% relative error over [1, 10s] in µs.
		mergeWaitUS: metrics.NewHistogram(0.01, 1e7),
		imbalance:   metrics.NewRolling(statsWindow),
	}
	for i, tables := range parts {
		spans, err := eng.PartialSpans(tables)
		if err != nil {
			return nil, err
		}
		sh := &shard{
			id:      i,
			tables:  tables,
			spans:   spans,
			free:    make(chan *core.BatchScratch, opts.RingDepth),
			tasks:   make(chan scatterTask, opts.RingDepth),
			service: metrics.NewRolling(statsWindow),
		}
		for range opts.RingDepth {
			p := new(core.BatchScratch)
			eng.EnsurePlane(p, opts.MaxBatch)
			sh.free <- p
		}
		c.shards = append(c.shards, sh)
	}
	c.wg.Add(len(c.shards))
	for _, sh := range c.shards {
		go c.shardWorker(sh)
	}
	return c, nil
}

// shardTables partitions the model's tables into at most n shards, balancing
// the bytes each shard gathers per query with a longest-processing-time
// greedy: largest table first onto the least-loaded shard, ties to the lower
// table and shard index. A table gathers lookups × row bytes a query, and a
// row is dim elements of the one datapath width, so lookups × dim orders and
// balances the tables alike. With fewer tables than n there is one shard per
// table, so no shard is empty. Each shard lists its tables in ascending
// order.
func shardTables(spec *model.Spec, n int) [][]int {
	n = min(n, len(spec.Tables))
	cost := func(t int) int { return spec.Tables[t].Lookups * spec.Tables[t].Dim }
	order := make([]int, len(spec.Tables))
	for t := range order {
		order[t] = t
	}
	sort.SliceStable(order, func(a, b int) bool { return cost(order[a]) > cost(order[b]) })
	shards := make([][]int, n)
	load := make([]int, n)
	for _, t := range order {
		best := 0
		for i := 1; i < n; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		shards[best] = append(shards[best], t)
		load[best] += cost(t)
	}
	for _, s := range shards {
		sort.Ints(s)
	}
	return shards
}

// Options returns the cluster's effective (defaulted) options.
func (c *Cluster) Options() Options { return c.opts }

// Close stops the shard workers. It must be called after every in-flight
// inference has returned: GatherIntoPlane has no error path, so a
// scatter/gather round racing Close would panic on the closed task channels.
// The serving layer guarantees this ordering (its drain empties first). It is
// idempotent.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	for _, sh := range c.shards {
		close(sh.tasks)
	}
	c.wg.Wait()
	return nil
}

// shardWorker serves one shard's scatter tasks in order: take a free partial
// plane from the shard's ring (blocking while all are out), gather the
// shard's table subset, report completion. The plane returns to the ring
// only after the coordinator has merged it (release).
func (c *Cluster) shardWorker(sh *shard) {
	defer c.wg.Done()
	for t := range sh.tasks {
		p := <-sh.free
		t0 := time.Now()
		c.eng.GatherPartialIntoPlane(sh.tables, t.queries, p)
		now := time.Now()
		d := now.Sub(t0)
		sh.batches.Add(1)
		sh.busyNS.Add(int64(d))
		sh.service.Observe(now, float64(d))
		t.done <- shardDone{sh: sh, plane: p, serviceNS: int64(d), doneAt: now}
	}
}

// release returns a merged partial plane to its shard's ring. A plane the
// ring did not hand out overfills it and panics: the ring is a token pool,
// not a free list.
func (sh *shard) release(p *core.BatchScratch) {
	select {
	case sh.free <- p:
	default:
		panic("cluster: partial plane released without a matching take")
	}
}

// ---- serving.Engine ----

// ValidateQuery delegates admission validation to the engine.
func (c *Cluster) ValidateQuery(q embedding.Query) error { return c.eng.ValidateQuery(q) }

// EnsurePlane sizes a coordinator plane via the engine.
func (c *Cluster) EnsurePlane(s *core.BatchScratch, b int) { c.eng.EnsurePlane(s, b) }

// GatherIntoPlane is the scatter/gather round: fan the batch out to every
// shard, zero the coordinator plane's dense tail while the shards gather,
// then merge each partial's feature columns as it completes — fast shards'
// columns land while stragglers still gather. The merged plane is
// bit-identical to the engine's monolithic gather: every value was copied
// by the same row-copy loop from the same tables, and the spans of a
// partition exactly cover the embedding region. Queries must have passed
// ValidateQuery and the plane must be sized for len(queries) (the
// serving.Engine contract).
func (c *Cluster) GatherIntoPlane(queries []embedding.Query, s *core.BatchScratch) {
	b := len(queries)
	done := make(chan shardDone, len(c.shards))
	for _, sh := range c.shards {
		sh.tasks <- scatterTask{queries: queries, done: done}
	}
	c.eng.ZeroDenseTail(b, s)
	var (
		firstAt, lastAt time.Time
		maxNS, sumNS    int64
		coldFaults      int64
	)
	for range c.shards {
		d := <-done
		// Straggler accounting uses the workers' own completion stamps:
		// receives interleave with merges below, so receive-side clocks
		// would charge coordinator merge cost to "waiting on stragglers".
		if firstAt.IsZero() || d.doneAt.Before(firstAt) {
			firstAt = d.doneAt
		}
		if d.doneAt.After(lastAt) {
			lastAt = d.doneAt
		}
		c.eng.MergePartialPlane(b, d.sh.spans, d.plane, s)
		coldFaults += d.plane.GatherObs().ColdFaults
		d.sh.release(d.plane)
		if d.serviceNS > maxNS {
			maxNS = d.serviceNS
		}
		sumNS += d.serviceNS
	}
	c.batches.Add(1)
	mergeWait := lastAt.Sub(firstAt)
	c.mergeWaitUS.Observe(float64(mergeWait) / float64(time.Microsecond))
	if sumNS > 0 {
		c.imbalance.Observe(lastAt, float64(maxNS)*float64(len(c.shards))/float64(sumNS))
	}
	// Replace the coordinator plane's (empty) gather record with the
	// scatter-wide one, so the flight recorder sees shard detail per batch.
	s.SetGatherObs(core.GatherObs{
		ColdFaults:  coldFaults,
		Shards:      len(c.shards),
		ShardMaxNS:  maxNS,
		MergeWaitNS: int64(mergeWait),
	})
}

// DenseFromPlane runs the hidden FC tower on the merged plane — once, on the
// coordinator, exactly as the single engine would.
func (c *Cluster) DenseFromPlane(b int, s *core.BatchScratch) { c.eng.DenseFromPlane(b, s) }

// TailFromPlane runs the output layer + sigmoid on the merged plane.
func (c *Cluster) TailFromPlane(b int, s *core.BatchScratch, dst []float32) {
	c.eng.TailFromPlane(b, s, dst)
}

// Spec delegates to the engine: the shards serve views of its model.
func (c *Cluster) Spec() *model.Spec { return c.eng.Spec() }

// Tier delegates to the underlying engine's tiered store, nil on an all-DRAM
// engine.
func (c *Cluster) Tier() *tieredstore.Store { return c.eng.Tier() }

// ---- stats ----

// ShardStats is one shard's point-in-time view.
type ShardStats struct {
	ID int `json:"id"`
	// Tables is the number of tables this shard owns.
	Tables int `json:"tables"`
	// Batches is the lifetime count of scatter rounds served.
	Batches uint64 `json:"batches"`
	// MeanServiceUS / P99ServiceUS summarise the rolling per-batch gather
	// service time.
	MeanServiceUS float64 `json:"mean_service_us"`
	P99ServiceUS  float64 `json:"p99_service_us"`
	// Occupancy is the fraction of recent wall time the shard spent
	// gathering (rolling batch rate x mean service, capped at 1).
	Occupancy float64 `json:"occupancy"`
}

// Stats is the /stats "cluster" section: the shard partition, the
// straggler-aware merge metrics, and per-shard occupancy.
type Stats struct {
	// Shards is the effective shard count; RingDepth each shard's partial-
	// plane ring size.
	Shards    int `json:"shards"`
	RingDepth int `json:"ring_depth"`
	// Batches is the lifetime count of scatter/gather rounds.
	Batches uint64 `json:"batches"`
	// MergeWaitUS is the distribution of coordinator straggler waits: per
	// batch, the gap between the first and last shard completion. A balanced
	// partition keeps the tail near zero; a skewed one shows up here before
	// it shows up in end-to-end latency.
	MergeWaitUS metrics.HistogramSnapshot `json:"merge_wait_us"`
	// ImbalanceRatio is the rolling mean of per-batch max/mean shard gather
	// service — 1.0 is a perfectly balanced round, N is one shard doing all
	// the work.
	ImbalanceRatio float64 `json:"imbalance_ratio"`
	// PerShard holds each shard's view, in shard order.
	PerShard []ShardStats `json:"per_shard"`
}

// Stats snapshots the tier.
func (c *Cluster) Stats() Stats {
	now := time.Now()
	st := Stats{
		Shards:         len(c.shards),
		RingDepth:      c.opts.RingDepth,
		Batches:        c.batches.Load(),
		MergeWaitUS:    c.mergeWaitUS.Snapshot(),
		ImbalanceRatio: c.imbalance.Snapshot(now).Summary.Mean,
		PerShard:       make([]ShardStats, len(c.shards)),
	}
	for i, sh := range c.shards {
		s := sh.service.Snapshot(now)
		occ := s.RatePerSec * s.Summary.Mean / 1e9
		if occ > 1 {
			occ = 1
		}
		st.PerShard[i] = ShardStats{
			ID:            sh.id,
			Tables:        len(sh.tables),
			Batches:       sh.batches.Load(),
			MeanServiceUS: s.Summary.Mean / 1e3,
			P99ServiceUS:  s.Summary.P99 / 1e3,
			Occupancy:     occ,
		}
	}
	return st
}
