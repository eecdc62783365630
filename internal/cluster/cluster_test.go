package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"microrec/internal/cluster"
	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/model"
	"microrec/internal/serving"
)

// The cluster must satisfy the serving layer's whole engine seam: that is
// what lets the micro-batcher, both drains, SLA admission and overload
// layer drive a sharded tier unchanged.
var _ serving.Engine = (*cluster.Cluster)(nil)

// buildEngine assembles a real engine for a spec (capacity-scaled),
// mirroring the core and serving test helpers.
func buildEngine(t testing.TB, spec *model.Spec) *core.Engine {
	t.Helper()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 128})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Build(params, core.Config{Precision: fixedpoint.Fixed16})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// randomSpec mirrors the core property tests' generator: varying table
// counts, dims, lookup cadences, dense tails and tower shapes exercise the
// shard partition across merged physical tables, lookup rounds and span
// shapes.
func randomSpec(rng *rand.Rand, name string) *model.Spec {
	nt := 3 + rng.Intn(5)
	tables := make([]model.TableSpec, nt)
	for i := range tables {
		tables[i] = model.TableSpec{
			ID:      i,
			Name:    fmt.Sprintf("%s-t%d", name, i),
			Rows:    int64(8 + rng.Intn(300)),
			Dim:     1 + rng.Intn(12),
			Lookups: 1 + rng.Intn(3),
		}
	}
	nh := 1 + rng.Intn(4)
	hidden := make([]int, nh)
	for i := range hidden {
		hidden[i] = 5 + rng.Intn(36)
	}
	return &model.Spec{
		Name:     name,
		Tables:   tables,
		DenseDim: rng.Intn(7),
		Hidden:   hidden,
	}
}

func randomQueries(spec *model.Spec, n int, seed int64) []embedding.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]embedding.Query, n)
	for i := range qs {
		q := embedding.NewQuery(spec)
		for ti, tab := range spec.Tables {
			for k := range q[ti] {
				q[ti][k] = rng.Int63n(tab.Rows)
			}
		}
		qs[i] = q
	}
	return qs
}

// inferBatch runs a batch through e the way the serving drains do: every
// query validated, then the three stage calls on one plane (a fresh one when
// s is nil). A core.Engine and a Cluster both implement the seam it drives.
func inferBatch(e serving.Engine, qs []embedding.Query, s *core.BatchScratch) ([]float32, error) {
	for i, q := range qs {
		if err := e.ValidateQuery(q); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	if s == nil {
		s = &core.BatchScratch{}
	}
	dst := make([]float32, len(qs))
	e.EnsurePlane(s, len(qs))
	e.GatherIntoPlane(qs, s)
	e.DenseFromPlane(len(qs), s)
	e.TailFromPlane(len(qs), s, dst)
	return dst, nil
}

// TestShardedBitIdentityProperty is the tier's core contract: for random
// model specs, shard counts in {1,2,3,4} and random query batches, the
// sharded scatter/gather/merge datapath produces bit-identical predictions
// to the single engine's stage calls.
func TestShardedBitIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		spec := randomSpec(rng, fmt.Sprintf("shard-%d", trial))
		if err := spec.Validate(); err != nil {
			t.Fatalf("trial %d: invalid spec: %v", trial, err)
		}
		eng := buildEngine(t, spec)
		var scratch core.BatchScratch
		for _, shards := range []int{1, 2, 3, 4} {
			c, err := cluster.New(eng, cluster.Options{Shards: shards})
			if err != nil {
				t.Fatalf("trial %d shards=%d: %v", trial, shards, err)
			}
			for _, b := range []int{1, 7, 33, 64} {
				qs := randomQueries(spec, b, int64(trial*1000+shards*100+b))
				want, err := inferBatch(eng, qs, &scratch)
				if err != nil {
					t.Fatal(err)
				}
				got, err := inferBatch(c, qs, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d shards=%d b=%d query %d: sharded %v, single-engine %v",
							trial, shards, b, i, got[i], want[i])
					}
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestClusterStats checks the tier's metrics: every scatter round counted on
// the coordinator and on every shard, merge waits recorded, and the
// imbalance ratio within [1, shards].
func TestClusterStats(t *testing.T) {
	spec := model.SmallProduction()
	eng := buildEngine(t, spec)
	c, err := cluster.New(eng, cluster.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const rounds = 20
	for i := 0; i < rounds; i++ {
		if _, err := inferBatch(c, randomQueries(spec, 8, int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Shards != 3 || st.Batches != rounds {
		t.Fatalf("stats %d shards %d batches, want 3/%d", st.Shards, st.Batches, rounds)
	}
	if st.MergeWaitUS.Count != rounds {
		t.Fatalf("merge-wait count %d, want %d", st.MergeWaitUS.Count, rounds)
	}
	if st.ImbalanceRatio < 1 || st.ImbalanceRatio > float64(st.Shards) {
		t.Fatalf("imbalance ratio %v outside [1, %d]", st.ImbalanceRatio, st.Shards)
	}
	if c.Spec() != eng.Spec() {
		t.Fatal("cluster Spec does not delegate to the engine")
	}
	tables := 0
	for _, sh := range st.PerShard {
		if sh.Batches != rounds {
			t.Fatalf("shard %d served %d batches, want %d", sh.ID, sh.Batches, rounds)
		}
		if sh.Tables < 1 {
			t.Fatalf("shard %d owns no tables", sh.ID)
		}
		tables += sh.Tables
	}
	if tables != len(eng.Spec().Tables) {
		t.Fatalf("shards own %d tables, engine has %d", tables, len(eng.Spec().Tables))
	}
}

// TestClusterConcurrentInfer drives the scatter/gather protocol from many
// goroutines at once (the worker-pool drain's shape); run under -race this
// is the tier's data-race check.
func TestClusterConcurrentInfer(t *testing.T) {
	spec := model.SmallProduction()
	eng := buildEngine(t, spec)
	c, err := cluster.New(eng, cluster.Options{Shards: 4, RingDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	qs := randomQueries(spec, 16, 3)
	var scratch core.BatchScratch
	want, err := inferBatch(eng, qs, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc core.BatchScratch
			for i := 0; i < 10; i++ {
				got, err := inferBatch(c, qs, &sc)
				if err != nil {
					errs <- err
					return
				}
				for k := range want {
					if got[k] != want[k] {
						errs <- fmt.Errorf("iteration %d query %d: %v != %v", i, k, got[k], want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServerWithShards runs the full serving stack — micro-batcher, staged
// drain, sharded tier — end to end and checks both the predictions (vs
// direct engine inference) and the /stats cluster section.
func TestServerWithShards(t *testing.T) {
	spec := model.SmallProduction()
	eng := buildEngine(t, spec)
	srv, err := serving.New(eng, serving.Options{
		Batching: serving.BatchingOptions{MaxBatch: 8},
		Tier:     serving.TierOptions{Shards: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := randomQueries(spec, 48, 11)
	var scratch core.BatchScratch
	want, err := inferBatch(eng, qs, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(qs))
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q embedding.Query) {
			defer wg.Done()
			res, err := srv.Submit(context.Background(), q)
			if err != nil {
				errs <- fmt.Errorf("query %d: %w", i, err)
				return
			}
			if res.CTR != want[i] {
				errs <- fmt.Errorf("query %d: served %v, engine %v", i, res.CTR, want[i])
			}
		}(i, q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Cluster == nil {
		t.Fatal("sharded server reported no cluster stats")
	}
	if st.Cluster.Shards != 3 {
		t.Fatalf("cluster stats report %d shards, want 3", st.Cluster.Shards)
	}
	if st.Cluster.Batches == 0 {
		t.Fatal("cluster served no batches")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Close stopped the owned cluster: a later round must fail cleanly.
	if _, err := srv.Submit(context.Background(), qs[0]); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
}

// TestServerShardsRequiresRealEngine pins the wrap rule: Options.Shards on an
// arbitrary Engine implementation (an overload-test fake, say) is a
// configuration error, not a silent fallback.
func TestServerShardsRequiresRealEngine(t *testing.T) {
	if _, err := serving.New(fakeEngine{}, serving.Options{Tier: serving.TierOptions{Shards: 2}}); err == nil {
		t.Fatal("Shards on a non-core engine did not error")
	}
}

// TestClusterCloseIdempotent double-closes and checks error-free idempotence.
func TestClusterCloseIdempotent(t *testing.T) {
	eng := buildEngine(t, model.SmallProduction())
	c, err := cluster.New(eng, cluster.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// fakeEngine is a minimal non-core serving.Engine used to exercise the
// Shards wrap error.
type fakeEngine struct{}

func (fakeEngine) EnsurePlane(s *core.BatchScratch, b int)                         {}
func (fakeEngine) GatherIntoPlane(queries []embedding.Query, s *core.BatchScratch) {}
func (fakeEngine) DenseFromPlane(b int, s *core.BatchScratch)                      {}
func (fakeEngine) TailFromPlane(b int, s *core.BatchScratch, dst []float32)        {}
func (fakeEngine) ValidateQuery(q embedding.Query) error                           { return nil }
func (fakeEngine) Spec() *model.Spec                                               { return nil }
