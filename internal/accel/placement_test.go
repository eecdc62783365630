package accel

import (
	"fmt"
	"math/rand"
	"testing"

	"microrec/internal/model"
)

// smallSystem is a 4-DRAM-bank, 1-on-chip-bank system for unit tests.
func smallSystem() System {
	banks := []Bank{
		{Kind: HBM, Capacity: 1 << 20, Timing: HBMTiming},
		{Kind: HBM, Capacity: 1 << 20, Timing: HBMTiming},
		{Kind: HBM, Capacity: 1 << 20, Timing: HBMTiming},
		{Kind: DDR, Capacity: 8 << 20, Timing: DDRTiming},
		{Kind: OnChip, Capacity: 4 << 10, Timing: OnChipTiming},
	}
	return System{Banks: banks}
}

func tinySpec(rows ...int64) *model.Spec {
	tables := make([]model.TableSpec, len(rows))
	for i, r := range rows {
		tables[i] = model.TableSpec{ID: i, Name: string(rune('a' + i)), Rows: r, Dim: 4, Lookups: 1}
	}
	return &model.Spec{Name: "tiny", Tables: tables, Hidden: []int{8}}
}

func TestPlanBasic(t *testing.T) {
	spec := tinySpec(100, 200, 5000, 8000, 12000)
	sys := smallSystem()
	res, err := Plan(spec, sys, Options{EnableCartesian: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BankOf) != len(res.Layout.Tables) {
		t.Fatalf("assignment covers %d tables, layout has %d", len(res.BankOf), len(res.Layout.Tables))
	}
	for ti, b := range res.BankOf {
		if b < 0 || b >= len(sys.Banks) {
			t.Errorf("table %d assigned to invalid bank %d", ti, b)
		}
	}
	if res.Report.LatencyNS <= 0 {
		t.Error("plan has zero latency")
	}
}

func TestPlanWithoutCartesianKeepsTables(t *testing.T) {
	spec := tinySpec(100, 200, 300, 400)
	res, err := Plan(spec, smallSystem(), Options{EnableCartesian: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout.NumMerged() != 0 {
		t.Errorf("cartesian disabled but %d merges", res.Layout.NumMerged())
	}
	if res.CandidateCount != 0 {
		t.Errorf("CandidateCount = %d, want 0", res.CandidateCount)
	}
	if len(res.Layout.Tables) != 4 {
		t.Errorf("layout has %d tables, want 4", len(res.Layout.Tables))
	}
}

func TestPlanCartesianReducesLatencyWhenChannelsAreScarce(t *testing.T) {
	// Five DRAM tables, three DRAM banks, no on-chip: without merging some
	// bank serves two tables (two rounds); merging two tiny tables gets
	// back to one round.
	sys := System{Banks: []Bank{
		{Kind: HBM, Capacity: 1 << 26, Timing: HBMTiming},
		{Kind: HBM, Capacity: 1 << 26, Timing: HBMTiming},
		{Kind: HBM, Capacity: 1 << 26, Timing: HBMTiming},
		{Kind: HBM, Capacity: 1 << 26, Timing: HBMTiming},
	}}
	spec := tinySpec(10, 20, 40000, 50000, 60000)
	plain, err := Plan(spec, sys, Options{EnableCartesian: false})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Plan(spec, sys, Options{EnableCartesian: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report.MaxOffChipRounds != 2 {
		t.Errorf("plain rounds = %d, want 2", plain.Report.MaxOffChipRounds)
	}
	if merged.Report.MaxOffChipRounds != 1 {
		t.Errorf("merged rounds = %d, want 1", merged.Report.MaxOffChipRounds)
	}
	if merged.Report.LatencyNS >= plain.Report.LatencyNS {
		t.Errorf("cartesian latency %.0f >= plain %.0f", merged.Report.LatencyNS, plain.Report.LatencyNS)
	}
	if merged.Layout.NumMerged() != 1 {
		t.Errorf("merged products = %d, want 1", merged.Layout.NumMerged())
	}
}

func TestPlanUsesOnChipForSmallestTables(t *testing.T) {
	spec := tinySpec(10, 40000, 50000, 60000, 70000)
	res, err := Plan(spec, smallSystem(), Options{EnableCartesian: false})
	if err != nil {
		t.Fatal(err)
	}
	// The 10-row table (160 B) fits the 4 KB on-chip bank.
	if res.OnChipTables() != 1 {
		t.Errorf("on-chip tables = %d, want 1", res.OnChipTables())
	}
	if res.DRAMTables() != 4 {
		t.Errorf("DRAM tables = %d, want 4", res.DRAMTables())
	}
	// The on-chip table must be the smallest.
	for ti, b := range res.BankOf {
		if res.System.Banks[b].Kind == OnChip {
			if res.Layout.Tables[ti].Rows() != 10 {
				t.Errorf("on-chip table has %d rows, want the 10-row table", res.Layout.Tables[ti].Rows())
			}
		}
	}
}

func TestPlanRespectsBankCapacity(t *testing.T) {
	// A table too large for HBM banks must land on the big DDR bank.
	spec := tinySpec(100, 200, 300_000) // 300k rows x 16 B = 4.8 MB > 1 MB HBM
	res, err := Plan(spec, smallSystem(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ti, b := range res.BankOf {
		tab := res.Layout.Tables[ti]
		if tab.Bytes() > res.System.Banks[b].Capacity {
			t.Errorf("table %q (%d B) overflows bank %d", tab.Name(), tab.Bytes(), b)
		}
		if tab.Rows() == 300_000 && res.System.Banks[b].Kind != DDR {
			t.Errorf("big table placed on %v, want DDR", res.System.Banks[b].Kind)
		}
	}
}

func TestPlanErrorWhenNothingFits(t *testing.T) {
	spec := tinySpec(10_000_000) // 160 MB exceeds every bank in smallSystem
	if _, err := Plan(spec, smallSystem(), Options{}); err == nil {
		t.Error("oversized model: want error")
	}
}

func TestPlanNoOffChip(t *testing.T) {
	sys := System{Banks: []Bank{{Kind: OnChip, Capacity: 1 << 10, Timing: OnChipTiming}}}
	if _, err := Plan(tinySpec(10), sys, Options{}); err == nil {
		t.Error("no off-chip banks: want error")
	}
}

func TestPlanInvalidSpec(t *testing.T) {
	if _, err := Plan(&model.Spec{Name: "x"}, smallSystem(), Options{}); err == nil {
		t.Error("invalid spec: want error")
	}
}

func TestLoadsMatchAssignment(t *testing.T) {
	spec := tinySpec(100, 200, 300)
	res, err := Plan(spec, smallSystem(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	loads := res.Loads()
	var accesses, bytes int64
	for _, l := range loads {
		for _, a := range l.Accesses {
			accesses += int64(a.Count)
		}
		bytes += l.Bytes
	}
	if accesses != int64(res.Layout.AccessesPerInference()) {
		t.Errorf("loads carry %d accesses, layout needs %d", accesses, res.Layout.AccessesPerInference())
	}
	if bytes != res.Layout.TotalBytes() {
		t.Errorf("loads carry %d bytes, layout has %d", bytes, res.Layout.TotalBytes())
	}
}

func TestHeuristicNearOptimalOnRandomInstances(t *testing.T) {
	// Compare Algorithm 1 against the exhaustive search on random small
	// instances; the heuristic must stay within 10% of optimal latency.
	rng := rand.New(rand.NewSource(2024))
	sys := System{Banks: []Bank{
		{Kind: HBM, Capacity: 1 << 24, Timing: HBMTiming},
		{Kind: HBM, Capacity: 1 << 24, Timing: HBMTiming},
		{Kind: HBM, Capacity: 1 << 24, Timing: HBMTiming},
		{Kind: OnChip, Capacity: 2 << 10, Timing: OnChipTiming},
	}}
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(2)
		rows := make([]int64, n)
		for i := range rows {
			rows[i] = int64(10 + rng.Intn(5000))
		}
		spec := tinySpec(rows...)
		h, err := Plan(spec, sys, Options{EnableCartesian: true})
		if err != nil {
			t.Fatalf("trial %d: heuristic: %v", trial, err)
		}
		b, err := BruteForce(spec, sys, Options{EnableCartesian: true}, BruteForceLimits{MaxTables: 6, MaxExhaustiveTables: 6})
		if err != nil {
			t.Fatalf("trial %d: brute force: %v", trial, err)
		}
		if h.Report.LatencyNS > b.Report.LatencyNS*1.10+1e-9 {
			t.Errorf("trial %d (rows %v): heuristic %.1f ns vs optimal %.1f ns (>10%% off)",
				trial, rows, h.Report.LatencyNS, b.Report.LatencyNS)
		}
		if h.Report.LatencyNS < b.Report.LatencyNS-1e-9 {
			t.Errorf("trial %d: heuristic %.1f beats 'optimal' %.1f — brute force is broken",
				trial, h.Report.LatencyNS, b.Report.LatencyNS)
		}
	}
}

func TestBruteForceRejectsLargeModels(t *testing.T) {
	rows := make([]int64, 20)
	for i := range rows {
		rows[i] = 100
	}
	if _, err := BruteForce(tinySpec(rows...), smallSystem(), Options{}, BruteForceLimits{}); err == nil {
		t.Error("20-table brute force: want error")
	}
}

func TestBruteForceWithoutCartesian(t *testing.T) {
	spec := tinySpec(100, 200, 300)
	res, err := BruteForce(spec, smallSystem(), Options{EnableCartesian: false}, BruteForceLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout.NumMerged() != 0 {
		t.Error("brute force merged tables with cartesian disabled")
	}
}

func TestForEachPairingCounts(t *testing.T) {
	// Involutions of n elements: 1, 1, 2, 4, 10, 26, 76 for n=0..6.
	want := []int{1, 1, 2, 4, 10, 26, 76}
	for n := 0; n <= 6; n++ {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		count := 0
		if err := forEachPairing(ids, nil, func([][]int) error {
			count++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if count != want[n] {
			t.Errorf("pairings of %d elements = %d, want %d", n, count, want[n])
		}
	}
}

func TestOnChipLatencyConstraint(t *testing.T) {
	// With co-location allowed, rule 4 must stop stacking tables once the
	// on-chip bank's serial latency would exceed the off-chip estimate.
	sys := System{Banks: []Bank{
		{Kind: HBM, Capacity: 1 << 26, Timing: HBMTiming},
		{Kind: OnChip, Capacity: 1 << 26, Timing: OnChipTiming},
	}}
	// Ten equal tiny tables: off-chip estimate is ~10 accesses / 1 bank.
	rows := make([]int64, 10)
	for i := range rows {
		rows[i] = 50
	}
	spec := tinySpec(rows...)
	res, err := Plan(spec, sys, Options{MaxTablesPerOnChipBank: 32})
	if err != nil {
		t.Fatal(err)
	}
	// On-chip bank busy time must not exceed the off-chip bank's.
	loads := res.Loads()
	rep, err := sys.Evaluate(loads)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerBankNS[1] > rep.PerBankNS[0]+1e-9 && res.OnChipTables() > 0 {
		t.Errorf("on-chip bank (%.0f ns) slower than DRAM (%.0f ns): rule 4 violated",
			rep.PerBankNS[1], rep.PerBankNS[0])
	}
}

func BenchmarkPlanSmallProduction(b *testing.B) {
	spec := model.SmallProduction()
	sys := U280(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(spec, sys, Options{EnableCartesian: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanLargeProduction(b *testing.B) {
	spec := model.LargeProduction()
	sys := U280(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(spec, sys, Options{EnableCartesian: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBruteForce6Tables(b *testing.B) {
	spec := tinySpec(10, 20, 300, 4000, 5000, 6000)
	sys := smallSystem()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BruteForce(spec, sys, Options{EnableCartesian: true}, BruteForceLimits{MaxTables: 6, MaxExhaustiveTables: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanReportIsItsLoadsEvaluated checks, for every preset with and
// without Cartesian products, that a plan's report is exactly the memory
// system's evaluation of its own bank loads, and that allowing products
// never yields a slower plan: the search with products enabled also tries
// merging nothing.
func TestPlanReportIsItsLoadsEvaluated(t *testing.T) {
	for _, pr := range presets {
		spec := pr.spec()
		sys := U280(pr.cfg.OnChipBanks)
		var latency [2]float64
		for i, cart := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cartesian=%v", pr.name, cart), func(t *testing.T) {
				res, err := Plan(spec, sys, Options{EnableCartesian: cart})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := sys.Evaluate(res.Loads())
				if err != nil {
					t.Fatal(err)
				}
				if rep.LatencyNS != res.Report.LatencyNS || rep.MaxRounds != res.Report.MaxRounds ||
					rep.Bottleneck != res.Report.Bottleneck {
					t.Errorf("report %+v, evaluating the loads gives %+v", res.Report, rep)
				}
				if !cart && res.Layout.NumMerged() != 0 {
					t.Errorf("%d products with Cartesian merging disabled", res.Layout.NumMerged())
				}
				latency[i] = res.Report.LatencyNS
			})
		}
		if latency[1] > latency[0] {
			t.Errorf("%s: products enabled give %.1f ns, disabled %.1f ns", pr.name, latency[1], latency[0])
		}
	}
}
