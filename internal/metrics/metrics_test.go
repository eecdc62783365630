package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	empty := Summarize(nil)
	if empty.Count != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if got := percentile(sorted, 0); got != 10 {
		t.Errorf("p0 = %v", got)
	}
	if got := percentile(sorted, 1); got != 40 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile(sorted, 0.5); got != 25 {
		t.Errorf("p50 = %v, want 25 (interpolated)", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(28.18, 2.26e-2); math.Abs(got-1246.9) > 1 {
		t.Errorf("Speedup = %v", got)
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Error("Speedup with zero denominator should be +Inf")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "col", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer-name") // short row padded
	tb.AddNote("calibrated against %s", "Table 5")
	out := tb.String()
	for _, want := range []string{"Table X", "col", "longer-name", "note: calibrated against Table 5", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Columns must align: every data line has the same prefix width for
	// the second column.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 {
		t.Fatalf("unexpected table shape:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("x,y", `say "hi"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("CSV did not quote comma field: %s", csv)
	}
	if !strings.Contains(csv, `"say ""hi"""`) {
		t.Errorf("CSV did not escape quotes: %s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("CSV header wrong: %s", csv)
	}
}

func TestFormatters(t *testing.T) {
	if FmtF(3.14159, 2) != "3.14" {
		t.Error("FmtF")
	}
	if FmtSpeedup(13.82) != "13.82x" {
		t.Error("FmtSpeedup")
	}
	if FmtPct(0.032) != "3.2%" {
		t.Error("FmtPct")
	}
	if FmtBytes(1536) != "1.50 KiB" {
		t.Errorf("FmtBytes(1536) = %s", FmtBytes(1536))
	}
	if FmtBytes(3<<20) != "3.00 MiB" {
		t.Error("FmtBytes MiB")
	}
	gib := 1.3 * float64(1<<30)
	if FmtBytes(int64(gib)) != "1.30 GiB" {
		t.Error("FmtBytes GiB")
	}
	if FmtBytes(12) != "12 B" {
		t.Error("FmtBytes B")
	}
	if FmtSI(305000) != "3.05e+05" {
		t.Errorf("FmtSI = %s", FmtSI(305000))
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr = %v", got)
	}
	if RelErr(0, 0) != 0 {
		t.Error("RelErr(0,0) should be 0")
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr(1,0) should be +Inf")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		lo, hi := math.Mod(math.Abs(p1), 1), math.Mod(math.Abs(p2), 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		sorted := append([]float64(nil), xs...)
		sortFloats(sorted)
		a, b := percentile(sorted, lo), percentile(sorted, hi)
		return a <= b+1e-9 && s.Min <= a+1e-9 && b <= s.Max+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func BenchmarkSummarize(b *testing.B) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64((i * 7919) % 1000)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Summarize(xs)
	}
}
