package core

import (
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"microrec/internal/fixedpoint"
	"microrec/internal/model"
	"microrec/internal/tieredstore"
)

// tierTestConfig returns a build config with a manual-sweep cold tier (tests
// drive placement explicitly for determinism).
func tierTestConfig(hotBytes int64) Config {
	cfg := Config{Precision: fixedpoint.Fixed16}
	cfg.ColdTier = &tieredstore.Config{
		HotBytes:   hotBytes,
		SweepEvery: -1,
	}
	return cfg
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// randomPlacement pins a random subset of every stream's rows.
func randomPlacement(store *tieredstore.Store, rng *rand.Rand, frac float64) {
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

// TestTierStreamsAreSourceTables pins what the cold tier holds: one stream per
// table, so the cold file is exactly the parameters' tables at the datapath's
// width.
func TestTierStreamsAreSourceTables(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, tierTestConfig(-1))
	defer e.Close()
	store := e.Tier()
	if got := store.Streams(); got != len(spec.Tables) {
		t.Errorf("%d tier streams for %d source tables", got, len(spec.Tables))
	}
	var want int64
	for i, ts := range spec.Tables {
		want += e.params.ActualRows[i] * int64(ts.Dim) * 2 // Fixed16
	}
	if got := store.TotalBytes(); got != want {
		t.Errorf("cold file holds %d bytes, the tables %d", got, want)
	}
}

// TestTierBitIdentityRandomPlacements is the tentpole property test: gather
// and inference output must be bit-identical to the all-DRAM engine across
// random hot/cold placements, including the all-cold store.
func TestTierBitIdentityRandomPlacements(t *testing.T) {
	spec := model.SmallProduction()
	ref := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	tiered := buildEngine(t, spec, tierTestConfig(-1)) // all-cold budget
	defer tiered.Close()
	store := tiered.Tier()
	if store == nil {
		t.Fatal("no tier store attached")
	}

	queries := randomQueries(spec, 64, 99)
	wantRes, err := ref.Infer(queries)
	if err != nil {
		t.Fatal(err)
	}
	wantFeat, err := ref.Gather(queries[0], nil)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	// Round 0 runs all-cold (no placement yet); later rounds pin random
	// subsets at varying fractions, including everything-hot.
	for round := 0; round < 6; round++ {
		if round > 0 {
			randomPlacement(store, rng, []float64{0.1, 0.5, 0.9, 1.0, 0.25}[round-1])
		}
		got, err := tiered.Infer(queries)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got.Predictions, wantRes.Predictions) {
			t.Fatalf("round %d: predictions diverge from all-DRAM engine", round)
		}
		feat, err := tiered.Gather(queries[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(feat, wantFeat) {
			t.Fatalf("round %d: float gather diverges", round)
		}
		p1, err := tiered.InferOne(queries[3])
		if err != nil {
			t.Fatal(err)
		}
		p2, err := ref.InferOne(queries[3])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(p1) != math.Float32bits(p2) {
			t.Fatalf("round %d: InferOne diverges", round)
		}
	}
}

// TestTierBitIdentityUnderChurn keeps repinning placements from another
// goroutine while batches run — mid-batch promotion and demotion must never
// change a prediction (the copy-on-write placement maps guarantee a gather
// holding an old map still reads valid, identical bits).
func TestTierBitIdentityUnderChurn(t *testing.T) {
	spec := model.SmallProduction()
	ref := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	tiered := buildEngine(t, spec, tierTestConfig(0))
	defer tiered.Close()
	store := tiered.Tier()

	queries := randomQueries(spec, 48, 5)
	want, err := ref.Infer(queries)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(23))
		for {
			select {
			case <-stop:
				return
			default:
			}
			randomPlacement(store, rng, rng.Float64())
			for id := 0; id < store.Streams(); id++ {
				if rng.Intn(3) == 0 {
					store.SetPlacement(id, nil) // demote everything mid-flight
				}
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; time.Now().Before(deadline) || i < 5; i++ {
		got, err := tiered.Infer(queries)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got.Predictions, want.Predictions) {
			t.Fatalf("iteration %d: churn changed a prediction", i)
		}
		if i >= 200 {
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestTierSweepEndToEnd drives skewed traffic through the engine, sweeps,
// and checks rows promote, the cold row count shrinks, and predictions stay
// bit-identical afterwards.
func TestTierSweepEndToEnd(t *testing.T) {
	spec := model.SmallProduction()
	ref := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	tiered := buildEngine(t, spec, tierTestConfig(0))
	defer tiered.Close()
	store := tiered.Tier()

	before := store.Snapshot()
	if before.HotRows != 0 || before.ColdRows <= 0 {
		t.Fatalf("a fresh store must start all cold: %+v", before)
	}

	// Skewed stream: a handful of hot queries repeated, so the store's
	// frequency window accumulates per-entry hits for a small row set.
	hot := randomQueries(spec, 4, 7)
	for i := 0; i < 200; i++ {
		if _, err := tiered.InferOne(hot[i%len(hot)]); err != nil {
			t.Fatal(err)
		}
	}
	store.SweepNow()
	snap := store.Snapshot()
	if snap.HotRows == 0 || snap.Promotions == 0 {
		t.Fatalf("sweep pinned nothing: %+v", snap)
	}
	if snap.HotBytes > snap.HotBudgetBytes {
		t.Fatalf("hot bytes %d exceed budget %d", snap.HotBytes, snap.HotBudgetBytes)
	}
	if snap.ColdRows >= before.ColdRows {
		t.Fatalf("cold rows did not shrink after promotion: %d >= %d", snap.ColdRows, before.ColdRows)
	}

	// Post-sweep traffic must hit the hot tier and stay bit-identical.
	want, err := ref.Infer(hot)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tiered.Infer(hot)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got.Predictions, want.Predictions) {
		t.Fatal("post-sweep predictions diverge")
	}
	snap2 := store.Snapshot()
	if snap2.HotReads <= snap.HotReads {
		t.Fatalf("no hot-tier reads after promotion: %+v", snap2)
	}
}

// TestTierPrefetchBatch checks the prefetch pass touches exactly the cold
// rows of a batch.
func TestTierPrefetchBatch(t *testing.T) {
	spec := model.SmallProduction()
	tiered := buildEngine(t, spec, tierTestConfig(0))
	defer tiered.Close()

	queries := randomQueries(spec, 8, 11)
	before := tiered.Tier().Snapshot()
	tiered.PrefetchBatch(queries)
	after := tiered.Tier().Snapshot()
	if after.Prefetches <= before.Prefetches {
		t.Fatalf("no cold rows prefetched: %+v", after)
	}
	// Prefetching must not count as tier reads.
	if after.HotReads != before.HotReads || after.ColdReads != before.ColdReads {
		t.Fatal("prefetch perturbed the read counters")
	}
}

// TestTierEngineClose checks Close removes the cold file and is safe to call
// twice; all-DRAM engines are no-ops.
func TestTierEngineClose(t *testing.T) {
	spec := model.SmallProduction()
	tiered := buildEngine(t, spec, tierTestConfig(0))
	path := tiered.Tier().Path()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cold file missing while open: %v", err)
	}
	if err := tiered.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("cold file survives engine Close")
	}
	if err := tiered.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	ref := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	if err := ref.Close(); err != nil {
		t.Errorf("all-DRAM Close: %v", err)
	}
	if ref.Tier() != nil {
		t.Error("all-DRAM engine reports a tier")
	}
}
