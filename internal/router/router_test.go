package router

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/loadgen"
	"microrec/internal/model"
	"microrec/internal/serving"
	"microrec/internal/tieredstore"
	"microrec/internal/workload"
)

// The router must satisfy the load harness's target seam: that is what lets
// bench, loadtest and the HTTP mux drive a replicated tier exactly like a
// single server.
var _ loadgen.Target = (*Router)(nil)

// testSpec is a small custom model: cheap to materialise per replica, with
// enough tables/lookups that queries hash well and the frequency windows see a
// non-trivial row space.
func testSpec() *model.Spec {
	tables := make([]model.TableSpec, 4)
	for i := range tables {
		tables[i] = model.TableSpec{
			ID:      i,
			Name:    fmt.Sprintf("rt-t%d", i),
			Rows:    50000,
			Dim:     8,
			Lookups: 2,
		}
	}
	return &model.Spec{Name: "router-test", Tables: tables, DenseDim: 4, Hidden: []int{32, 16, 8}}
}

// buildEngine assembles a real engine over testSpec, mirroring the cluster
// test helper. seed controls the materialised parameters: equal seeds give
// bit-identical engines (the replica homogeneity the tier assumes), distinct
// seeds model a new parameter snapshot for swap tests. A positive
// windowBytes builds an all-cold tiered engine whose frequency window holds
// that many bytes (its caller must Close it); 0 an all-DRAM one.
func buildEngine(t testing.TB, spec *model.Spec, windowBytes int64, seed int64) *core.Engine {
	t.Helper()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: seed, MaxRowsPerTable: 2048})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Precision: fixedpoint.Fixed16}
	if windowBytes > 0 {
		cfg.ColdTier = &tieredstore.Config{HotBytes: -1, SweepEvery: -1, WindowBytes: windowBytes}
	}
	eng, err := core.Build(params, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func zipfPool(t testing.TB, spec *model.Spec, n int, seed int64) []embedding.Query {
	t.Helper()
	gen, err := workload.NewGenerator(spec, workload.Zipf, seed)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.Batch(n)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func newRouter(t testing.TB, p Policy) *Router {
	t.Helper()
	rt, err := New(Options{Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// fakeEngine mirrors the serving overload tests' deterministic fake: the
// dense stage sleeps a fixed per-batch service time, so load-policy tests
// can manufacture slow and fast replicas without depending on host speed.
//
// A non-nil gate additionally blocks every batch in its gather stage until
// the test closes it, which is how the saturation test fills a replica.
type fakeEngine struct {
	service time.Duration
	gate    chan struct{}
	served  atomic.Uint64
}

func (e *fakeEngine) ValidateQuery(q embedding.Query) error {
	if len(q) == 0 {
		return errors.New("fakeEngine: empty query")
	}
	return nil
}

func (e *fakeEngine) EnsurePlane(s *core.BatchScratch, b int) {}
func (e *fakeEngine) GatherIntoPlane(queries []embedding.Query, s *core.BatchScratch) {
	if e.gate != nil {
		<-e.gate
	}
}
func (e *fakeEngine) DenseFromPlane(b int, s *core.BatchScratch) {
	time.Sleep(e.service)
}
func (e *fakeEngine) TailFromPlane(b int, s *core.BatchScratch, dst []float32) {
	e.served.Add(uint64(b))
	for i := range dst[:b] {
		dst[i] = 0.5
	}
}
func (e *fakeEngine) Spec() *model.Spec { return fakeSpec }

// fakeSpec is the one-table model fakeQuery fits.
var fakeSpec = &model.Spec{
	Name:   "fake",
	Tables: []model.TableSpec{{ID: 0, Name: "t", Rows: 2, Dim: 1, Lookups: 1}},
	Hidden: []int{1},
}

var fakeQuery = embedding.Query{[]int64{1}}

func fakeOpts() serving.Options {
	return serving.Options{
		Batching:  serving.BatchingOptions{MaxBatch: 4, Window: 50 * time.Microsecond},
		Pipeline:  serving.PipelineOptions{Depth: 2},
		Admission: serving.AdmissionOptions{QueueDepth: 64},
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(string(p))
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %q, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := New(Options{Policy: "bogus"}); err == nil {
		t.Fatal("New accepted a bogus policy")
	}
}

func TestQueryHashStableAndSpread(t *testing.T) {
	q := embedding.Query{{1, 2}, {3}, {4, 5}}
	if queryHash(q) != queryHash(embedding.Query{{1, 2}, {3}, {4, 5}}) {
		t.Fatal("equal queries hash differently")
	}
	if queryHash(q) == queryHash(embedding.Query{{1, 2}, {3}, {4, 6}}) {
		t.Fatal("distinct queries collide on a trivial perturbation")
	}
}

// TestRendezvousMinimalRemap is the property the affinity policy buys from
// rendezvous hashing: draining one replica re-homes only the keys whose
// maximum weight was on it; every other key keeps its replica (and so its
// warm window and hot tier).
func TestRendezvousMinimalRemap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ids := []int{1, 2, 3}
	moved := 0
	for i := 0; i < 2000; i++ {
		h := rng.Uint64()
		home := func(ids []int) int {
			best, bestW := ids[0], rendezvousWeight(h, ids[0])
			for _, id := range ids[1:] {
				if w := rendezvousWeight(h, id); w > bestW {
					best, bestW = id, w
				}
			}
			return best
		}
		before := home(ids)
		after := home([]int{1, 3})
		if before != 2 && after != before {
			t.Fatalf("key %d re-homed %d→%d though replica 2 held neither", h, before, after)
		}
		if before == 2 {
			moved++
		}
	}
	if moved < 400 || moved > 950 {
		t.Fatalf("replica 2 held %d/2000 keys; want roughly a third", moved)
	}
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	rt := newRouter(t, RoundRobin)
	for i := 0; i < 3; i++ {
		if _, err := rt.Add(&fakeEngine{}, fakeOpts(), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if _, err := rt.Submit(context.Background(), fakeQuery); err != nil {
			t.Fatal(err)
		}
	}
	for _, rs := range rt.Stats().Router.PerReplica {
		if rs.Routed != 100 {
			t.Fatalf("replica %d routed %d under round-robin; want 100", rs.ID, rs.Routed)
		}
	}
}

// TestLeastLoadedBoundsOccupancyUnderSkew manufactures skew with a 100x
// service-time gap between two replicas. Least-loaded must shift traffic to
// the fast replica once the slow one's queue grows, instead of letting the
// blind half of a round-robin split pile up behind the slow engine.
func TestLeastLoadedBoundsOccupancyUnderSkew(t *testing.T) {
	rt := newRouter(t, LeastLoaded)
	slow := &fakeEngine{service: 10 * time.Millisecond}
	fast := &fakeEngine{service: 100 * time.Microsecond}
	slowID, err := rt.Add(slow, fakeOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Add(fast, fakeOpts(), nil); err != nil {
		t.Fatal(err)
	}
	const total = 240
	var wg sync.WaitGroup
	var failures atomic.Uint64
	maxSlowScore := 0
	var scoreMu sync.Mutex
	done := make(chan struct{})
	go func() {
		// Sample the slow replica's load score while traffic flows: bounded
		// occupancy is the property, so observe it live, not post-hoc.
		for {
			select {
			case <-done:
				return
			case <-time.After(200 * time.Microsecond):
			}
			set := rt.set.Load()
			if rep := set.find(slowID); rep != nil {
				s := rep.srv.LoadScore()
				scoreMu.Lock()
				if s > maxSlowScore {
					maxSlowScore = s
				}
				scoreMu.Unlock()
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/8; i++ {
				if _, err := rt.Submit(context.Background(), fakeQuery); err != nil {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d submits failed", n)
	}
	slowServed := slow.served.Load()
	fastServed := fast.served.Load()
	if fastServed < 3*slowServed {
		t.Fatalf("least-loaded sent %d to the fast replica vs %d to the slow one; want a strong skew", fastServed, slowServed)
	}
	scoreMu.Lock()
	peak := maxSlowScore
	scoreMu.Unlock()
	// The slow replica's backlog must stay bounded well below a full queue:
	// once one batch is in flight and another is queued its score exceeds
	// the fast replica's, and routing moves on.
	if peak > 64 {
		t.Fatalf("slow replica load score peaked at %d; least-loaded should bound it", peak)
	}
}

// TestOccupancyAtSaturation fills two shedding replicas behind held planes —
// queue full, a full batch on offer, every plane occupied — and checks the
// occupancy /stats reports: it reaches 1.0 on both and never reads above it,
// so the load score and the capacity it is normalised by count the same
// things.
func TestOccupancyAtSaturation(t *testing.T) {
	rt := newRouter(t, LeastLoaded)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	// Registered after the router's own cleanup, so it runs first: a failed
	// test must open the gate before Close can drain.
	t.Cleanup(func() {
		close(gate)
		wg.Wait()
	})
	opts := fakeOpts()
	opts.Admission = serving.AdmissionOptions{QueueDepth: 8, Shed: true}
	for i := 0; i < 2; i++ {
		if _, err := rt.Add(&fakeEngine{gate: gate}, opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	full := func() bool {
		n := 0
		for _, rs := range rt.Stats().Router.PerReplica {
			if rs.Occupancy > 1 {
				t.Errorf("replica %d occupancy %.3f (load score %d) above 1", rs.ID, rs.Occupancy, rs.LoadScore)
			}
			if rs.Occupancy == 1 {
				n++
			}
		}
		return n == 2
	}
	// Offer requests until both replicas are full: an admitted one waits
	// behind the gate, a shed one returns and is simply replaced.
	for deadline := time.Now().Add(5 * time.Second); !full(); {
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not saturate: %+v", rt.Stats().Router.PerReplica)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.Submit(context.Background(), fakeQuery); err != nil && !errors.Is(err, serving.ErrOverloaded) {
				t.Errorf("unexpected error: %v", err)
			}
		}()
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRoutedBitIdenticalToSingleReplica is the tier's correctness anchor:
// for every policy and replica count, routing changes only *where* a query
// runs, never its prediction.
func TestRoutedBitIdenticalToSingleReplica(t *testing.T) {
	spec := testSpec()
	eng := buildEngine(t, spec, 0, 1)
	pool := zipfPool(t, spec, 96, 3)
	sopts := serving.Options{
		Batching: serving.BatchingOptions{MaxBatch: 8, Window: 100 * time.Microsecond},
	}

	ref, err := serving.New(eng, sopts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, len(pool))
	for i, q := range pool {
		res, err := ref.Submit(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.CTR
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	for _, policy := range Policies() {
		for replicas := 1; replicas <= 3; replicas++ {
			t.Run(fmt.Sprintf("%s/replicas=%d", policy, replicas), func(t *testing.T) {
				rt := newRouter(t, policy)
				for i := 0; i < replicas; i++ {
					// The engine is immutable and safely shared: replicas
					// differ only in serving composition, exactly like
					// same-seed engines would.
					if _, err := rt.Add(eng, sopts, nil); err != nil {
						t.Fatal(err)
					}
				}
				got := make([]float32, len(pool))
				var wg sync.WaitGroup
				var failed atomic.Uint64
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := w; i < len(pool); i += 4 {
							res, err := rt.Submit(context.Background(), pool[i])
							if err != nil {
								failed.Add(1)
								return
							}
							got[i] = res.CTR
						}
					}(w)
				}
				wg.Wait()
				if n := failed.Load(); n != 0 {
					t.Fatalf("%d submits failed", n)
				}
				for i := range pool {
					if got[i] != want[i] {
						t.Fatalf("query %d: routed CTR %v != single-replica CTR %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// measureHitRate drives a 3-replica tier over a Zipf pool under one policy
// and returns the post-warmup pooled hit rate. Each replica's frequency
// window is sized to roughly half the pool's whole row working set: a replica serving
// the full key space cycles an LRU it cannot hold, while a replica serving
// an affinity slice holds its share with room to spare — the N·C effect the
// affinity policy exists to buy.
func measureHitRate(t *testing.T, policy Policy, spec *model.Spec, pool []embedding.Query, capacity int64) float64 {
	t.Helper()
	rt := newRouter(t, policy)
	for i := 0; i < 3; i++ {
		eng := buildEngine(t, spec, capacity, 1)
		if _, err := rt.Add(eng, serving.Options{
			Batching: serving.BatchingOptions{MaxBatch: 1},
		}, eng.Close); err != nil {
			t.Fatal(err)
		}
	}
	// Shuffle the pool each pass: with a fixed order, round-robin would see
	// the same third of the pool on each replica every pass and degenerate
	// into a static partition, hiding exactly the effect under test.
	rng := rand.New(rand.NewSource(11))
	order := rng.Perm(len(pool))
	run := func(passes int) {
		for p := 0; p < passes; p++ {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, i := range order {
				if _, err := rt.Submit(context.Background(), pool[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run(2) // warm up, uncounted
	rt.MarkHitRateBaseline()
	run(6)
	st := rt.Stats()
	if st.Router == nil {
		t.Fatal("router stats section missing")
	}
	return st.Router.AggregateHitRate
}

// workingSetBytes probes the pool's whole-row working set: one oversized
// window, one pass, read back the used bytes.
func workingSetBytes(t *testing.T, spec *model.Spec, pool []embedding.Query) int64 {
	t.Helper()
	probe := buildEngine(t, spec, 16<<20, 1)
	defer probe.Close()
	if _, err := probe.Infer(pool); err != nil {
		t.Fatal(err)
	}
	w := probe.Tier().Snapshot().Window
	if w.UsedBytes == 0 {
		t.Fatal("probe engine's window recorded nothing")
	}
	return w.UsedBytes
}

// TestAffinityBeatsRoundRobinOnZipf is the acceptance property: on a
// Zipf-skewed workload over 3 replicas, hot-key affinity's aggregate
// frequency-window hit rate must beat round-robin's — the measured form of
// the effective N·C window argument.
func TestAffinityBeatsRoundRobinOnZipf(t *testing.T) {
	spec := testSpec()
	pool := zipfPool(t, spec, 360, 7)
	capacity := workingSetBytes(t, spec, pool) / 2

	rr := measureHitRate(t, RoundRobin, spec, pool, capacity)
	aff := measureHitRate(t, Affinity, spec, pool, capacity)
	t.Logf("aggregate hit rate: round-robin %.3f, affinity %.3f", rr, aff)
	if aff <= rr+0.05 {
		t.Fatalf("affinity hit rate %.3f does not beat round-robin %.3f by a visible margin", aff, rr)
	}
}

// TestHitRateDeltaAfterPolicySwitch mirrors the loadtest wiring: calibrate
// under round-robin, mark the baseline, switch to affinity, and read the
// lift out of the /stats router section.
func TestHitRateDeltaAfterPolicySwitch(t *testing.T) {
	spec := testSpec()
	pool := zipfPool(t, spec, 360, 7)
	capacity := workingSetBytes(t, spec, pool) / 2

	rt := newRouter(t, RoundRobin)
	for i := 0; i < 3; i++ {
		eng := buildEngine(t, spec, capacity, 1)
		if _, err := rt.Add(eng, serving.Options{
			Batching: serving.BatchingOptions{MaxBatch: 1},
		}, eng.Close); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(13))
	order := rng.Perm(len(pool))
	run := func(passes int) {
		for p := 0; p < passes; p++ {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, i := range order {
				if _, err := rt.Submit(context.Background(), pool[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run(4)
	rt.MarkHitRateBaseline()
	if err := rt.SetPolicy(Affinity); err != nil {
		t.Fatal(err)
	}
	run(6)
	st := rt.Stats()
	rs := st.Router
	if rs == nil {
		t.Fatal("router stats section missing")
	}
	if rs.Policy != string(Affinity) {
		t.Fatalf("policy %q after switch", rs.Policy)
	}
	if rs.HitRateDelta <= 0.02 {
		t.Fatalf("hit-rate delta %.3f after switching to affinity; want a visible lift (baseline %.3f, aggregate %.3f)",
			rs.HitRateDelta, rs.BaselineHitRate, rs.AggregateHitRate)
	}
	policies := map[string]uint64{}
	for _, d := range rs.Decisions {
		policies[d.Policy] = d.Total
	}
	if policies[string(RoundRobin)] == 0 || policies[string(Affinity)] == 0 {
		t.Fatalf("decision scoreboard %v should carry both phases", policies)
	}
}

// TestRouterTraceCarriesReplicaIDs: every span of a routed tier names the
// replica that served it, and the merged stream is start-ordered.
func TestRouterTraceCarriesReplicaIDs(t *testing.T) {
	rt := newRouter(t, RoundRobin)
	opts := fakeOpts()
	opts.Trace = serving.TraceOptions{Sample: 1}
	for i := 0; i < 2; i++ {
		if _, err := rt.Add(&fakeEngine{}, opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := rt.Submit(context.Background(), fakeQuery); err != nil {
			t.Fatal(err)
		}
	}
	spans := rt.Trace(0, time.Time{})
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	seen := map[int32]int{}
	for i, sp := range spans {
		if sp.Replica < 1 || sp.Replica > 2 {
			t.Fatalf("span %d carries replica %d; want 1 or 2", i, sp.Replica)
		}
		seen[sp.Replica]++
		if i > 0 && spans[i-1].Start > sp.Start {
			t.Fatalf("merged trace out of order at %d", i)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("spans only from replicas %v; want both", seen)
	}
}

func TestRouterWriteMetrics(t *testing.T) {
	rt := newRouter(t, Affinity)
	for i := 0; i < 2; i++ {
		if _, err := rt.Add(&fakeEngine{}, fakeOpts(), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := rt.Submit(context.Background(), fakeQuery); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := rt.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"microrec_router_replicas 2",
		`microrec_router_decisions_total{policy="affinity"} 20`,
		`microrec_router_replica_routed_total{replica="1"}`,
		"microrec_router_aggregate_hit_rate",
		`policy="affinity"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSubmitWithNoReplicas(t *testing.T) {
	rt := newRouter(t, RoundRobin)
	if _, err := rt.Submit(context.Background(), fakeQuery); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("submit on empty tier: %v", err)
	}
}

// TestDrainUnderLiveTraffic closes a three-replica tier while six clients
// submit back to back: every Submit either is served or fails with
// ErrNoReplicas once the routable set is empty, never with an error of a
// replica torn down under it; every served request reached an engine, and
// each replica's closer runs exactly once.
func TestDrainUnderLiveTraffic(t *testing.T) {
	rt := newRouter(t, RoundRobin)
	engines := make([]*fakeEngine, 3)
	var closed [3]atomic.Int32
	for i := range engines {
		engines[i] = &fakeEngine{service: 200 * time.Microsecond}
		if _, err := rt.Add(engines[i], fakeOpts(), func() error { closed[i].Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var completed atomic.Uint64
	failures := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := rt.Submit(context.Background(), fakeQuery)
				if errors.Is(err, ErrNoReplicas) {
					return
				}
				if err != nil {
					failures <- err
					return
				}
				completed.Add(1)
			}
		}()
	}
	// Let traffic build before the drain.
	for deadline := time.Now().Add(5 * time.Second); completed.Load() < 60; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests served in 5 s", completed.Load())
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close under traffic: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close under traffic did not return in 10 s")
	}
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Errorf("submit failed across the drain: %v", err)
	}
	var served uint64
	for i, e := range engines {
		served += e.served.Load()
		if n := closed[i].Load(); n != 1 {
			t.Errorf("replica %d closer ran %d times; want 1", i+1, n)
		}
	}
	if got := completed.Load(); served != got {
		t.Errorf("engines served %d requests, clients completed %d", served, got)
	}
	if err := rt.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}
