// Package router implements the replicated serving tier: N independent
// replicas — each a full serving.Server composition (micro-batcher, admission
// gate, pipelined drain) over its own engine — fronted by a router with
// swappable policies (round-robin, least-loaded, hot-key affinity).
//
// Replicas serve disjoint batches in parallel. The affinity policy
// additionally exploits production traffic skew: routing by a hash of the
// query's embedding keys partitions the key space across the replicas'
// tiered stores, so N frequency windows (and DRAM hot tiers) of size C behave
// like one of ~N·C (the hit-rate lift is measured and reported in the /stats
// "router" section).
//
// The hot path is lock-free: membership is a copy-on-write, id-ordered
// replica slice behind an atomic pointer, and each routing decision is a
// slice load, a policy pick and two atomic counters. Membership changes
// (Add, Close) serialize on a mutex that the hot path never touches. Close
// removes every replica without dropping any admitted request: the replicas
// leave the routable set first, in-flight routed requests are awaited on a
// per-replica counter, and only then does each replica's server Close (which
// itself drains every accepted request).
package router

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"microrec/internal/embedding"
	"microrec/internal/obs"
	"microrec/internal/serving"
)

// ErrNoReplicas is returned by Submit when the routable set is empty: the
// router has closed, or no replica was ever added.
var ErrNoReplicas = errors.New("router: no active replicas")

// drainPoll is the interval at which Close re-checks a draining
// replica's in-flight counter. The window between a routing decision and the
// replica's Submit is a few hundred nanoseconds, so the counter settles
// within one or two polls.
const drainPoll = 100 * time.Microsecond

// replica is one member of the replicated tier: a serving.Server plus the
// router's per-replica scoreboard.
type replica struct {
	// id is the replica's 1-based identity, stamped into the server's
	// Options.Router.ReplicaID (and so onto every span it records). Plain
	// fields are written once before the replica is published and read-only
	// after.
	id     int
	srv    *serving.Server
	closer func() error

	// routed counts routing decisions that landed here; inflight the routed
	// requests currently between the decision and Submit's return — the
	// counter Close awaits before closing the server.
	routed   atomic.Uint64
	inflight atomic.Int64
	// draining flips once, when Close has taken the replica out of the
	// routable set; a Submit that raced the removal re-checks it after
	// registering in inflight and backs off.
	draining atomic.Bool
}

// primary is the replica whose serving stats anchor the merged /stats and
// /metrics views: the first member, or nil when there is none.
func primary(set []*replica) *replica {
	if len(set) == 0 {
		return nil
	}
	return set[0]
}

// Options configures a Router.
type Options struct {
	// Policy is the initial routing policy; default RoundRobin. Swappable
	// at runtime via SetPolicy.
	Policy Policy
}

// Router fronts the replicated tier. It implements the load harness's Target
// seam (Submit) and the serving telemetry surface (Stats, Trace,
// WriteMetrics), so the HTTP mux, bench and loadtest drive it exactly like a
// single server.
type Router struct {
	// mu serializes membership changes; the Submit hot path never takes
	// it. nextID is guarded by mu.
	mu     sync.Mutex
	nextID int

	// set is the membership snapshot, ordered by id: the hot path loads it
	// with a single atomic pointer read. Add and Close publish a new slice;
	// a published one is never written.
	set    atomic.Pointer[[]*replica]
	policy atomic.Int32
	rr     atomic.Uint64

	// Per-policy decision scoreboard: lifetime totals.
	decisions [numPolicies]atomic.Uint64

	// Affinity-lift baseline mark (MarkHitRateBaseline): the pooled
	// hit/lookup counters and rate at the mark, so the post-mark aggregate
	// rate — and its delta against the pre-mark rate — can be derived from
	// the caches' lifetime counters.
	baseMu      sync.Mutex
	baseMarked  bool
	baseHits    int64
	baseLookups int64
	baseRate    float64
}

// New builds an empty router; replicas join via Add.
func New(opts Options) (*Router, error) {
	p := opts.Policy
	if p == "" {
		p = RoundRobin
	}
	idx, err := p.index()
	if err != nil {
		return nil, err
	}
	rt := &Router{}
	rt.policy.Store(int32(idx))
	rt.set.Store(new([]*replica))
	return rt, nil
}

// Add builds one replica — a full serving.Server over eng, with the new
// replica's 1-based id stamped into sopts.Router.ReplicaID so its spans carry
// it — and publishes it to the routable set. closer, when non-nil, is the
// replica's resource teardown (typically the engine's Close), invoked after
// the replica's server closes at drain time. Safe under live traffic; the
// affinity policy remaps ~1/N of the key space onto the newcomer.
func (rt *Router) Add(eng serving.Engine, sopts serving.Options, closer func() error) (int, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	id := rt.nextID + 1
	sopts.Router.ReplicaID = id
	srv, err := serving.New(eng, sopts)
	if err != nil {
		return 0, err
	}
	rt.nextID = id
	rep := &replica{id: id, srv: srv, closer: closer}
	next := slices.Concat(*rt.set.Load(), []*replica{rep})
	rt.set.Store(&next)
	return id, nil
}

// Submit routes one query to a replica under the active policy and blocks on
// that replica's serving future — the load harness's Target seam. A decision
// that races Close backs off and re-picks from the updated set, so no
// request is ever committed to a replica that will not serve it.
func (rt *Router) Submit(ctx context.Context, q embedding.Query) (serving.Result, error) {
	for {
		set := *rt.set.Load()
		if len(set) == 0 {
			return serving.Result{}, ErrNoReplicas
		}
		pcode := int(rt.policy.Load())
		rep := rt.pick(pcode, set, q)
		// Register in the replica's in-flight count *before* re-checking
		// draining: Close flips the flag first and then waits for this
		// counter, so either we see the flag and back off, or the drain sees
		// our registration and waits for the server to carry the request to
		// completion. Requests cannot fall between.
		rep.inflight.Add(1)
		if rep.draining.Load() {
			rep.inflight.Add(-1)
			continue
		}
		rt.decisions[pcode].Add(1)
		rep.routed.Add(1)
		res, err := rep.srv.Submit(ctx, q)
		rep.inflight.Add(-1)
		return res, err
	}
}

// pick applies one policy to the member slice (never empty here).
func (rt *Router) pick(pcode int, set []*replica, q embedding.Query) *replica {
	switch pcode {
	case leastLoadedIdx:
		best, bestScore := set[0], rt.loadScore(set[0])
		for _, r := range set[1:] {
			if s := rt.loadScore(r); s < bestScore {
				best, bestScore = r, s
			}
		}
		return best
	case affinityIdx:
		h := queryHash(q)
		best, bestW := set[0], rendezvousWeight(h, set[0].id)
		for _, r := range set[1:] {
			if w := rendezvousWeight(h, r.id); w > bestW {
				best, bestW = r, w
			}
		}
		return best
	default: // round-robin
		return set[int((rt.rr.Add(1)-1)%uint64(len(set)))]
	}
}

// loadScore is the least-loaded policy's scoring input: the replica's live
// serving load (queue depth + flush-size-weighted in-flight batches) plus the
// routed requests not yet inside the server — so a burst of simultaneous
// decisions spreads even before the first one reaches a submit queue.
func (rt *Router) loadScore(r *replica) int {
	return r.srv.LoadScore() + int(r.inflight.Load())
}

// SetPolicy swaps the routing policy at runtime; in-flight requests finish
// under the policy that routed them.
func (rt *Router) SetPolicy(p Policy) error {
	idx, err := p.index()
	if err != nil {
		return err
	}
	rt.policy.Store(int32(idx))
	return nil
}

// PolicyName reports the active policy.
func (rt *Router) PolicyName() string {
	return string(policyNames[rt.policy.Load()])
}

// awaitIdle polls a draining replica's in-flight counter to zero. No router
// lock is held across the wait — the Submit hot path proceeds throughout.
func (rep *replica) awaitIdle() {
	for rep.inflight.Load() != 0 {
		time.Sleep(drainPoll)
	}
}

// MarkHitRateBaseline snapshots the replicas' pooled frequency-window
// counters as the affinity-lift baseline: after the mark, the /stats router
// section's aggregate_hit_rate covers only post-mark traffic and
// hit_rate_delta is its lift over the pre-mark pooled rate. The loadtest harness marks the
// baseline between its round-robin calibration phase and the affinity run.
func (rt *Router) MarkHitRateBaseline() {
	hits, lookups := rt.pooledCounts()
	rate := 0.0
	if lookups > 0 {
		rate = float64(hits) / float64(lookups)
	}
	rt.baseMu.Lock()
	rt.baseMarked = true
	rt.baseHits = hits
	rt.baseLookups = lookups
	rt.baseRate = rate
	rt.baseMu.Unlock()
}

// pooledCounts sums the members' lifetime frequency-window hit/lookup
// counters.
func (rt *Router) pooledCounts() (hits, lookups int64) {
	for _, rep := range *rt.set.Load() {
		if h, m, ok := rep.srv.HotCacheCounts(); ok {
			hits += h
			lookups += h + m
		}
	}
	return hits, lookups
}

// Stats returns the primary replica's serving stats with the router
// scoreboard merged in as the "router" section — the /stats payload of a
// routed server. The top-level sections (latency, admission, pipeline, …)
// are the primary replica's own view; the router section carries the
// per-replica breakdown.
func (rt *Router) Stats() serving.Stats {
	set := *rt.set.Load()
	var st serving.Stats
	if p := primary(set); p != nil {
		st = p.srv.Stats()
	}
	rs := &serving.RouterStats{
		Policy:   rt.PolicyName(),
		Replicas: len(set),
	}
	activeIdx := int(rt.policy.Load())
	for i, name := range policyNames {
		total := rt.decisions[i].Load()
		if total == 0 && i != activeIdx {
			continue
		}
		rs.Decisions = append(rs.Decisions, serving.PolicyDecisionStats{
			Policy: string(name),
			Total:  total,
		})
	}
	var hits, lookups int64
	for _, rep := range set {
		ss := rep.srv.Stats()
		score := rep.srv.LoadScore()
		occ := 0.0
		if capacity := rep.srv.LoadCapacity(); capacity > 0 {
			occ = float64(score) / float64(capacity)
		}
		hr := 0.0
		if h, m, ok := rep.srv.HotCacheCounts(); ok {
			hits += h
			lookups += h + m
			if h+m > 0 {
				hr = float64(h) / float64(h+m)
			}
		}
		rs.PerReplica = append(rs.PerReplica, serving.ReplicaStats{
			ID:               rep.id,
			Routed:           rep.routed.Load(),
			InFlight:         rep.inflight.Load(),
			QueueDepth:       rep.srv.QueueLen(),
			PipelineInFlight: rep.srv.InFlightBatches(),
			LoadScore:        score,
			Occupancy:        occ,
			Queries:          ss.Queries,
			QPS:              ss.QPS,
			P99US:            ss.LatencyUS.P99,
			HitRate:          hr,
		})
	}
	if lookups > 0 {
		rs.AggregateHitRate = float64(hits) / float64(lookups)
	}
	rt.baseMu.Lock()
	if rt.baseMarked {
		rs.BaselineHitRate = rt.baseRate
		rs.AggregateHitRate = 0
		if dl := lookups - rt.baseLookups; dl > 0 {
			rs.AggregateHitRate = float64(hits-rt.baseHits) / float64(dl)
		}
		rs.HitRateDelta = rs.AggregateHitRate - rs.BaselineHitRate
	}
	rt.baseMu.Unlock()
	st.Router = rs
	return st
}

// Trace merges the members' flight-recorder snapshots into one span stream
// ordered by start time (each span carries its replica id), trimmed to the
// newest `last` when positive — the /trace payload of a routed server.
func (rt *Router) Trace(last int, since time.Time) []obs.Span {
	var spans []obs.Span
	for _, rep := range *rt.set.Load() {
		spans = append(spans, rep.srv.Trace(last, since)...)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if last > 0 && len(spans) > last {
		spans = spans[len(spans)-last:]
	}
	return spans
}

// RetryAfter is the backoff hint for shed clients: the primary replica's
// figure (replicas are homogeneous; the hint only needs the right scale).
func (rt *Router) RetryAfter() time.Duration {
	if p := primary(*rt.set.Load()); p != nil {
		return p.srv.RetryAfter()
	}
	return time.Millisecond
}

// CapacityQPS is the tier's steady-state capacity estimate: the sum of the
// replicas' knees (replicas serve disjoint traffic, so capacities
// add — the router-level figure the loadtest auto-scaler needs).
func (rt *Router) CapacityQPS() float64 {
	var qps float64
	for _, rep := range *rt.set.Load() {
		qps += rep.srv.CapacityQPS()
	}
	return qps
}

// WriteMetrics renders the primary replica's Prometheus exposition followed
// by the router's own families — the GET /metrics payload of a routed
// server. Like the single-server exposition, every router figure derives
// from the same Stats() snapshot /stats serves.
func (rt *Router) WriteMetrics(w io.Writer) error {
	if p := primary(*rt.set.Load()); p != nil {
		if err := p.srv.WriteMetrics(w); err != nil {
			return err
		}
	}
	rs := rt.Stats().Router
	m := obs.NewMetricWriter(w)
	m.Info("microrec_router_info", "Replicated-tier routing configuration.", "policy", rs.Policy)
	m.Gauge("microrec_router_replicas", "Routable replica count.", float64(rs.Replicas))
	dec := m.Family("microrec_router_decisions_total", "Routing decisions per policy.", "counter")
	for _, d := range rs.Decisions {
		dec.Obs(float64(d.Total), "policy", d.Policy)
	}
	routed := m.Family("microrec_router_replica_routed_total", "Requests routed per replica.", "counter")
	occ := m.Family("microrec_router_replica_occupancy", "Replica load score over load capacity.", "gauge")
	hr := m.Family("microrec_router_replica_hit_rate", "Per-replica frequency-window hit rate.", "gauge")
	for _, r := range rs.PerReplica {
		id := fmt.Sprintf("%d", r.ID)
		routed.Obs(float64(r.Routed), "replica", id)
		occ.Obs(r.Occupancy, "replica", id)
		hr.Obs(r.HitRate, "replica", id)
	}
	m.Gauge("microrec_router_aggregate_hit_rate", "Pooled frequency-window hit rate across replicas (post-mark when a baseline is set).", rs.AggregateHitRate)
	m.Gauge("microrec_router_hit_rate_delta", "Aggregate hit-rate lift over the marked baseline.", rs.HitRateDelta)
	return m.Err()
}

// Close drains every member — no admitted request is dropped — and tears the
// tier down. Idempotent; Submits racing the shutdown fail with ErrNoReplicas
// once the routable set empties.
func (rt *Router) Close() error {
	rt.mu.Lock()
	set := *rt.set.Load()
	rt.set.Store(new([]*replica))
	rt.mu.Unlock()
	var err error
	for _, rep := range set {
		rep.draining.Store(true)
		rep.awaitIdle()
		if e := rep.srv.Close(); err == nil {
			err = e
		}
		if rep.closer != nil {
			if e := rep.closer(); err == nil {
				err = e
			}
		}
	}
	return err
}
