// Package metrics provides the statistics and report formatting shared by
// the experiment harness: latency summaries, throughput conversions, and
// aligned text tables in the style of the paper's result tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds order statistics of a sample of latencies (or any values).
type Summary struct {
	Count          int
	Mean, Min, Max float64
	P50, P95, P99  float64
}

// Summarize computes a Summary. It copies the input before sorting.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Summary{
		Count: len(s),
		Mean:  sum / float64(len(s)),
		Min:   s[0],
		Max:   s[len(s)-1],
		P50:   percentile(s, 0.50),
		P95:   percentile(s, 0.95),
		P99:   percentile(s, 0.99),
	}
}

// percentile returns the p-quantile of a sorted sample using nearest-rank
// interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Speedup returns baseline/accelerated, the paper's speedup convention.
// A zero denominator yields +Inf.
func Speedup(baseline, accelerated float64) float64 {
	if accelerated == 0 {
		return math.Inf(1)
	}
	return baseline / accelerated
}

// Table renders aligned text tables for experiment output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	notes  []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote line rendered below the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header + rows), with
// fields containing commas or quotes escaped per RFC 4180.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Formatting helpers used across experiment reports.

// FmtF formats a float with the given decimals.
func FmtF(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// FmtSI formats a value in engineering notation (e.g. 3.05e+05).
func FmtSI(v float64) string { return fmt.Sprintf("%.3g", v) }

// FmtSpeedup formats a speedup factor like the paper ("13.82x").
func FmtSpeedup(v float64) string { return fmt.Sprintf("%.2fx", v) }

// FmtPct formats a ratio as a percentage.
func FmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// FmtBytes renders a byte count human-readably (GiB/MiB/KiB).
func FmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// RelErr returns |got-want|/|want| (0 when both are 0, +Inf when only want
// is 0), the deviation metric EXPERIMENTS.md reports.
func RelErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}
