package cluster_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"microrec/internal/cluster"
	"microrec/internal/core"
	"microrec/internal/fixedpoint"
	"microrec/internal/model"
	"microrec/internal/serving"
	"microrec/internal/tieredstore"
)

// The sharded tier must satisfy the serving layer's optional tier
// capability too, so a tiered sharded deployment gets the /stats section.
var _ serving.Tiered = (*cluster.Cluster)(nil)

// buildTieredEngine mirrors buildEngine with a manual-sweep cold tier
// attached (tests drive placement explicitly).
func buildTieredEngine(t testing.TB, spec *model.Spec, hotBytes int64) *core.Engine {
	t.Helper()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 128})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Precision: fixedpoint.Fixed16}
	cfg.ColdTier = &tieredstore.Config{HotBytes: hotBytes, SweepEvery: -1}
	eng, err := core.Build(params, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestShardedTieredBitIdentity is the cluster x cold-tier e2e property: for
// shard counts {1..4} and random placements repinned between batches, the
// sharded scatter/gather over a tiered engine stays bit-identical to the
// all-DRAM single engine.
func TestShardedTieredBitIdentity(t *testing.T) {
	spec := model.SmallProduction()
	ref := buildEngine(t, spec)
	tiered := buildTieredEngine(t, spec, 0)
	store := tiered.Tier()
	if store == nil {
		t.Fatal("no tier store attached")
	}
	rng := rand.New(rand.NewSource(31))
	repin := func(frac float64) {
		for id := 0; id < store.Streams(); id++ {
			st := store.Stream(id)
			var rows []int64
			for r := int64(0); r < st.Rows(); r++ {
				if rng.Float64() < frac {
					rows = append(rows, r)
				}
			}
			store.SetPlacement(id, rows)
		}
	}
	var scratch core.BatchScratch
	for _, shards := range []int{1, 2, 3, 4} {
		c, err := cluster.New(tiered, cluster.Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for round, frac := range []float64{0, 0.3, 0.9, 1} {
			repin(frac)
			qs := randomQueries(spec, 33, int64(shards*100+round))
			want, err := ref.InferBatch(qs, nil, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.InferBatch(qs, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d frac=%v query %d: tiered %v, all-DRAM %v",
						shards, frac, i, got[i], want[i])
				}
			}
		}
		// The last repin pinned every row: the cluster's tier snapshot must
		// show the promotion.
		if snap := c.Tier().Snapshot(); snap.ColdRows != 0 || snap.HotRows == 0 {
			t.Fatalf("shards=%d: cluster tier snapshot %+v, want every row hot", shards, snap)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedTieredSweepHarvest checks every shard's reads land in the
// store's one frequency window and feed the placement sweep: traffic served
// only through the cluster still promotes rows.
func TestShardedTieredSweepHarvest(t *testing.T) {
	spec := model.SmallProduction()
	tiered := buildTieredEngine(t, spec, 0)
	store := tiered.Tier()
	c, err := cluster.New(tiered, cluster.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	qs := randomQueries(spec, 8, 3)
	const rounds = 30
	for round := 0; round < rounds; round++ {
		if _, err := c.InferBatch(qs, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if w := store.Snapshot().Window; w.Hits+w.Misses != int64(rounds*len(qs)*spec.NumLookups()) || w.Hits == 0 {
		t.Fatalf("window %+v: want all %d reads of the three shards, hits among them", w, rounds*len(qs)*spec.NumLookups())
	}
	store.SweepNow()
	snap := c.Tier().Snapshot()
	if snap.HotRows == 0 || snap.Promotions == 0 {
		t.Fatalf("sharded traffic harvested nothing: %+v", snap)
	}
}

// TestServerShardsTieredStats runs the full serving stack — micro-batcher,
// staged drain, sharded tier, cold tier — and checks /stats surfaces the
// tiers section. Served traffic reads each row once, in the gather: no
// separate prefetch pass touches the store.
func TestServerShardsTieredStats(t *testing.T) {
	spec := model.SmallProduction()
	tiered := buildTieredEngine(t, spec, 0)
	srv, err := serving.New(tiered, serving.Options{
		Batching: serving.BatchingOptions{MaxBatch: 8},
		Tier:     serving.TierOptions{Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := randomQueries(spec, 24, 9)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, q := range qs {
		if _, err := srv.Submit(ctx, q); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Tiers == nil {
		t.Fatal("stats missing tiers section")
	}
	if st.Tiers.Prefetches != 0 {
		t.Fatalf("served traffic ran %d prefetches; the gather is the only row read", st.Tiers.Prefetches)
	}
	if st.Tiers.ColdReads == 0 {
		t.Fatal("all-cold serving recorded no cold reads")
	}
	if st.Cluster == nil || st.Cluster.Shards != 2 {
		t.Fatalf("cluster section %+v", st.Cluster)
	}
}
