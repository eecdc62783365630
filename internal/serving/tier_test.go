package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/tieredstore"
)

// tierRows is buildTestEngine's MaxRowsPerTable: a stream holds
// min(table rows, tierRows) rows.
const tierRows = 64

// serveAll submits every query concurrently and returns the served CTRs in
// query order.
func serveAll(t *testing.T, srv *Server, qs []embedding.Query) []float32 {
	t.Helper()
	out := make([]float32, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := srv.Submit(context.Background(), q)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			out[i] = res.CTR
		}()
	}
	wg.Wait()
	return out
}

// TestServedTieredBitIdentity is the serving stack's cold-tier property in
// both drains: with random placements repinned between rounds, from all cold
// to all hot, every CTR served over a tiered engine is bit-identical to the
// all-DRAM engine's InferOne.
func TestServedTieredBitIdentity(t *testing.T) {
	ref := testEngine(t)
	for _, d := range drains {
		t.Run(d.name, func(t *testing.T) {
			eng := buildTestEngine(t, core.Config{
				Precision: fixedpoint.Fixed16,
				ColdTier:  &tieredstore.Config{HotBytes: -1, SweepEvery: -1},
			})
			t.Cleanup(func() { eng.Close() })
			store := eng.Tier()
			spec := eng.Spec()
			srv := newServer(t, eng, Options{
				Batching: BatchingOptions{MaxBatch: 8},
				Pipeline: PipelineOptions{Depth: 2, WorkerPool: d.workerPool},
			})
			rng := rand.New(rand.NewSource(31))
			for round, frac := range []float64{0, 0.3, 0.9, 1} {
				for id := 0; id < store.Streams(); id++ {
					var rows []int64
					for r := int64(0); r < min(spec.Tables[id].Rows, tierRows); r++ {
						if rng.Float64() < frac {
							rows = append(rows, r)
						}
					}
					store.SetPlacement(id, rows)
				}
				qs := randomQueries(t, spec, 33, int64(100+round))
				want := inferEach(t, ref, qs)
				got := serveAll(t, srv, qs)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("frac=%v query %d: served %v, all-DRAM %v", frac, i, got[i], want[i])
					}
				}
			}
			// The last round pinned every row: the served stats must show it.
			if st := srv.Stats(); st.Tiers == nil || st.Tiers.ColdRows != 0 || st.Tiers.HotRows == 0 {
				t.Fatalf("tiers section %+v, want every row hot", st.Tiers)
			}
		})
	}
}

// TestServedTrafficFeedsSweep checks that every row a server's gathers read
// lands in the store's frequency window, and that the placement sweep
// promotes from traffic served only through the server.
func TestServedTrafficFeedsSweep(t *testing.T) {
	for _, d := range drains {
		t.Run(d.name, func(t *testing.T) {
			eng := buildTestEngine(t, core.Config{
				Precision: fixedpoint.Fixed16,
				ColdTier:  &tieredstore.Config{SweepEvery: -1},
			})
			t.Cleanup(func() { eng.Close() })
			store := eng.Tier()
			srv := newServer(t, eng, Options{
				Batching: BatchingOptions{MaxBatch: 8},
				Pipeline: PipelineOptions{WorkerPool: d.workerPool},
			})
			qs := randomQueries(t, eng.Spec(), 8, 3)
			const rounds = 30
			for round := 0; round < rounds; round++ {
				serveAll(t, srv, qs)
			}
			reads := int64(rounds * len(qs) * eng.Spec().NumLookups())
			if w := store.Snapshot().Window; w.Hits+w.Misses != reads || w.Hits == 0 {
				t.Fatalf("window %+v: want all %d served reads, hits among them", w, reads)
			}
			store.SweepNow()
			if snap := store.Snapshot(); snap.HotRows == 0 || snap.Promotions == 0 {
				t.Fatalf("served traffic harvested nothing: %+v", snap)
			}
		})
	}
}

// TestShardsIgnoredOnAnyEngine pins TierOptions.Shards as ignored: on an
// engine that is not a core engine, which the retired sharded tier could not
// wrap, New accepts the field and the server serves through the engine.
func TestShardsIgnoredOnAnyEngine(t *testing.T) {
	for _, d := range drains {
		t.Run(d.name, func(t *testing.T) {
			eng := &slowEngine{}
			srv := newServer(t, eng, Options{
				Batching: BatchingOptions{MaxBatch: 4},
				Pipeline: PipelineOptions{WorkerPool: d.workerPool},
				Tier:     TierOptions{Shards: 2},
			})
			res, err := srv.Submit(context.Background(), slowQuery)
			if err != nil {
				t.Fatal(err)
			}
			if res.CTR != 0.5 || eng.served.Load() != 1 {
				t.Fatalf("served CTR %v with %d queries at the engine, want 0.5 and 1", res.CTR, eng.served.Load())
			}
		})
	}
}

// TestIgnoredShardsLeaveObservablesUnchanged serves the same queries on a
// tiered engine with and without TierOptions.Shards set, and checks that the
// field changes neither the /stats document's keys nor the metric families
// of the exposition.
func TestIgnoredShardsLeaveObservablesUnchanged(t *testing.T) {
	eng := tieredTestEngine(t, 1<<16)
	qs := randomQueries(t, eng.Spec(), 24, 5)
	served := func(shards int) *Server {
		srv := newServer(t, eng, Options{
			Batching: BatchingOptions{MaxBatch: 8},
			Tier:     TierOptions{Shards: shards},
			Trace:    TraceOptions{Sample: 1},
		})
		serveAll(t, srv, qs)
		return srv
	}
	plain, sharded := served(0), served(2)

	t.Run("stats", func(t *testing.T) {
		keys := func(srv *Server) map[string]bool {
			raw, err := json.Marshal(srv.Stats())
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			out := map[string]bool{}
			collectKeys("", doc, out)
			return out
		}
		want, got := keys(plain), keys(sharded)
		if !want["tiers.cold_reads"] || !want["hotcache.hits"] {
			t.Fatalf("tiered server's stats lack the tier sections: %v", want)
		}
		if !maps.Equal(got, want) {
			t.Fatalf("stats keys with Shards set %v, without %v", got, want)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		families := func(srv *Server) map[string]bool {
			var buf bytes.Buffer
			if err := srv.WriteMetrics(&buf); err != nil {
				t.Fatal(err)
			}
			out := map[string]bool{}
			for _, line := range strings.Split(buf.String(), "\n") {
				if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
					out[strings.Fields(name)[0]] = true
				}
			}
			return out
		}
		want, got := families(plain), families(sharded)
		if len(want) == 0 {
			t.Fatal("exposition declares no metric families")
		}
		if !maps.Equal(got, want) {
			t.Fatalf("metric families with Shards set %v, without %v", got, want)
		}
	})
}
