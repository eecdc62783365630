package experiments

import (
	"math"
	"strings"
	"testing"

	"microrec/internal/metrics"
)

func TestAllRunnersExecute(t *testing.T) {
	opts := Options{Items: 2000}
	for _, r := range All() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			tables, err := r.Run(opts)
			if err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", r.Name)
			}
			for _, tb := range tables {
				out := tb.String()
				if len(out) == 0 || !strings.Contains(out, "\n") {
					t.Errorf("%s rendered empty table", r.Name)
				}
			}
		})
	}
}

func TestFindRunner(t *testing.T) {
	if _, err := Find("table2"); err != nil {
		t.Errorf("Find(table2): %v", err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("Find(nope): want error")
	}
}

// TestTable2SpeedupsMatchPaper is the headline reproduction check: end-to-end
// speedups at B=2048 must land near the paper's 2.5–5.4x range.
func TestTable2SpeedupsMatchPaper(t *testing.T) {
	sum, err := Table2Summary(Options{Items: 4000})
	if err != nil {
		t.Fatal(err)
	}
	for modelName, byPrec := range PaperTable2Speedup {
		for prec, byBatch := range byPrec {
			got := sum[modelName][prec]
			for _, b := range []int{64, 256, 512, 1024, 2048} {
				want := byBatch[b]
				if !approxEqual(got.Speedup[b], want, 0.20) {
					t.Errorf("%s fp%d B=%d speedup = %.2fx, paper %.2fx (>20%% off)",
						modelName, prec, b, got.Speedup[b], want)
				}
			}
			// B=1 speedups are hundreds-x; check order of magnitude.
			if got.Speedup[1] < byBatch[1]*0.5 || got.Speedup[1] > byBatch[1]*2 {
				t.Errorf("%s fp%d B=1 speedup = %.0fx, paper %.0fx (outside 2x band)",
					modelName, prec, got.Speedup[1], byBatch[1])
			}
		}
	}
}

// TestTable2ShapeHolds checks the qualitative claims: MicroRec always wins,
// speedup shrinks with batch size, and the paper's 2.5–5.4x B=2048 range
// holds.
func TestTable2ShapeHolds(t *testing.T) {
	sum, err := Table2Summary(Options{Items: 4000})
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi float64 = 1e18, 0
	for _, byPrec := range sum {
		for _, row := range byPrec {
			prev := 1e18
			for _, b := range PaperBatch {
				s := row.Speedup[b]
				if s <= 1 {
					t.Errorf("%s fp%d B=%d: speedup %.2f <= 1 — FPGA must win everywhere",
						row.Model, row.Precision, b, s)
				}
				if s > prev+1e-9 {
					t.Errorf("%s fp%d: speedup grew with batch size (B=%d)", row.Model, row.Precision, b)
				}
				prev = s
			}
			s := row.Speedup[2048]
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
	}
	if lo < 2.0 || hi > 7.0 {
		t.Errorf("B=2048 speedup range [%.2f, %.2f], paper reports 2.5–5.4x", lo, hi)
	}
}

// TestTable3MatchesPaperCounts asserts the integer-valued placement results
// match Table 3 exactly.
func TestTable3MatchesPaperCounts(t *testing.T) {
	rows, err := Table3Rows(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		ref := PaperTable3[r.Model][r.Cartesian]
		if r.Tables != ref.Tables {
			t.Errorf("%s cart=%v: tables %d, paper %d", r.Model, r.Cartesian, r.Tables, ref.Tables)
		}
		if r.TablesInDRAM != ref.TablesInDRAM {
			t.Errorf("%s cart=%v: DRAM tables %d, paper %d", r.Model, r.Cartesian, r.TablesInDRAM, ref.TablesInDRAM)
		}
		if r.DRAMRounds != ref.DRAMRounds {
			t.Errorf("%s cart=%v: rounds %d, paper %d", r.Model, r.Cartesian, r.DRAMRounds, ref.DRAMRounds)
		}
		if !approxEqual(r.StoragePct, ref.StoragePct, 0.005) {
			t.Errorf("%s cart=%v: storage %.1f%%, paper %.1f%%", r.Model, r.Cartesian, r.StoragePct, ref.StoragePct)
		}
	}
}

// TestTable3LatencyShape asserts the Cartesian latency ratio direction and
// rough magnitude (the paper reports 59.2% and 72.1%).
func TestTable3LatencyShape(t *testing.T) {
	rows, err := Table3Rows(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Cartesian {
			continue
		}
		ref := PaperTable3[r.Model][true]
		if r.LatencyPct >= 100 {
			t.Errorf("%s: Cartesian latency %.1f%% >= 100%% — no benefit", r.Model, r.LatencyPct)
		}
		if !approxEqual(r.LatencyPct, ref.LatencyPct, 0.12) {
			t.Errorf("%s: latency ratio %.1f%%, paper %.1f%% (>12%% off)", r.Model, r.LatencyPct, ref.LatencyPct)
		}
	}
}

// TestTable4SpeedupsMatchPaper validates embedding-layer speedups within
// 25% of every published cell (the lookup latencies themselves are checked
// tighter in TestTable4Lookups).
func TestTable4SpeedupsMatchPaper(t *testing.T) {
	results, err := Table4Results(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		for cfgName, byBatch := range PaperTable4Speedup[r.Model] {
			for b, want := range byBatch {
				got := r.Speedup[cfgName][b]
				if !approxEqual(got, want, 0.25) {
					t.Errorf("%s %s B=%d: speedup %.1fx, paper %.1fx (>25%% off)",
						r.Model, cfgName, b, got, want)
				}
			}
		}
		// The headline claim: 13.8–14.7x at B=2048 with HBM+Cartesian.
		headline := r.Speedup["hbm+cartesian"][2048]
		if headline < 10 || headline > 20 {
			t.Errorf("%s headline embedding speedup %.1fx outside 10-20x", r.Model, headline)
		}
	}
}

// TestTable4Lookups validates the modeled FPGA lookup latencies against the
// paper's Table 4 values.
func TestTable4Lookups(t *testing.T) {
	results, err := Table4Results(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		ref := PaperTable4FPGA[r.Model]
		if !approxEqual(r.CartesianNS, ref["hbm+cartesian"], 0.10) {
			t.Errorf("%s HBM+Cartesian lookup %.0f ns, paper %.0f (>10%% off)",
				r.Model, r.CartesianNS, ref["hbm+cartesian"])
		}
		if !approxEqual(r.HBMNS, ref["hbm"], 0.20) {
			t.Errorf("%s HBM lookup %.0f ns, paper %.0f (>20%% off)",
				r.Model, r.HBMNS, ref["hbm"])
		}
		if r.CartesianNS >= r.HBMNS {
			t.Errorf("%s: Cartesian lookup %.0f >= HBM-only %.0f", r.Model, r.CartesianNS, r.HBMNS)
		}
	}
}

// TestTable5MatchesPaper validates every cell of Table 5 within 7%.
func TestTable5MatchesPaper(t *testing.T) {
	cells, err := Table5Cells(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 10 {
		t.Fatalf("Table 5 has %d cells, want 10", len(cells))
	}
	for _, c := range cells {
		ref := PaperTable5[c.Tables][c.Dim]
		if !approxEqual(c.LookupNS, ref.LookupNS, 0.07) {
			t.Errorf("%d tables dim %d: %.1f ns, paper %.1f (>7%% off)",
				c.Tables, c.Dim, c.LookupNS, ref.LookupNS)
		}
		if !approxEqual(c.Speedup, ref.Speedup, 0.07) {
			t.Errorf("%d tables dim %d: speedup %.1fx, paper %.1fx (>7%% off)",
				c.Tables, c.Dim, c.Speedup, ref.Speedup)
		}
	}
	// Shape: 8 tables = 1 round, 12 tables = 2 rounds (§5.4.2).
	for _, c := range cells {
		wantRounds := 1
		if c.Tables == 12 {
			wantRounds = 2
		}
		if c.Rounds != wantRounds {
			t.Errorf("%d tables: %d rounds, want %d", c.Tables, c.Rounds, wantRounds)
		}
	}
}

// TestFigure7Shape validates the robustness curve: flat, then declining, with
// breakpoints within one round of the paper's 6 (small) and 4 (large).
func TestFigure7Shape(t *testing.T) {
	points, err := Figure7Series(Options{Items: 2000}, 8)
	if err != nil {
		t.Fatal(err)
	}
	bp := Figure7Breakpoint(points)
	for m, want := range PaperFigure7Breakpoints {
		got := bp[m]
		if got < want-1 || got > want+1 {
			t.Errorf("%s breakpoint = %d rounds, paper %d (±1 tolerated)", m, got, want)
		}
	}
	// Beyond the breakpoint, throughput must decline monotonically.
	perModel := map[string][]Figure7Point{}
	for _, p := range points {
		perModel[p.Model] = append(perModel[p.Model], p)
	}
	for m, ps := range perModel {
		for i := 1; i < len(ps); i++ {
			if ps[i].ItemsPerS > ps[i-1].ItemsPerS*1.001 {
				t.Errorf("%s: throughput increased from round %d to %d", m, ps[i-1].Rounds, ps[i].Rounds)
			}
		}
		if ps[len(ps)-1].ItemsPerS >= ps[0].ItemsPerS*0.995 {
			t.Errorf("%s: throughput never declined by round 8 — lookup never became the bottleneck", m)
		}
	}
}

// TestFigure7RenderIsDeterministic renders Figure 7 several times: the
// breakpoint notes come in series order, so every render is the same bytes.
func TestFigure7RenderIsDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 8; i++ {
		tables, err := RunFigure7(Options{Items: 2000})
		if err != nil {
			t.Fatal(err)
		}
		out := tables[0].String()
		if i == 0 {
			first = out
		} else if out != first {
			t.Fatalf("render %d differs from the first:\n%s\nfirst:\n%s", i, out, first)
		}
	}
}

func TestTableRenderingIncludesPaperNotes(t *testing.T) {
	tables, err := RunTable3(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := tables[0].String()
	if !strings.Contains(out, "With Cartesian") || !strings.Contains(out, "Without Cartesian") {
		t.Errorf("Table 3 output missing configs:\n%s", out)
	}
}

func TestRunCostFavorsFPGA(t *testing.T) {
	tables, err := RunCost(Options{Items: 2000})
	if err != nil {
		t.Fatal(err)
	}
	out := tables[0].String()
	if !strings.Contains(out, "FPGA") || !strings.Contains(out, "CPU") {
		t.Errorf("cost table malformed:\n%s", out)
	}
}

func TestCSVExport(t *testing.T) {
	tables, err := RunTable5(Options{})
	if err != nil {
		t.Fatal(err)
	}
	csv := tables[0].CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 11 { // header + 10 cells
		t.Errorf("Table 5 CSV has %d lines, want 11", len(lines))
	}
}

var benchTables []*metrics.Table

func BenchmarkRunTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := RunTable3(Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchTables = tb
	}
}

// approxEqual reports whether a and b agree within relative tolerance relTol.
func approxEqual(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b)/math.Max(math.Abs(a), math.Abs(b)) <= relTol
}
