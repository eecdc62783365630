package core

import "testing"

// checkRowMod asserts the one property rowMod has: for a table advertising
// specRows logical rows and holding rows of them, reduce(idx) == idx % rows
// for a validated idx, by the cheapest reduction the pair allows.
func checkRowMod(t *testing.T, specRows, rows, idx int64) {
	t.Helper()
	m := newRowMod(specRows, rows)
	want := rowDivide
	switch {
	case rows == specRows:
		want = rowIdentity
	case specRows <= 1<<32:
		want = rowReciprocal
	}
	if m.kind != want {
		t.Fatalf("spec rows %d, rows %d: reduction kind %d, want %d", specRows, rows, m.kind, want)
	}
	if got := m.reduce(idx); got != idx%rows {
		t.Fatalf("spec rows %d, rows %d (kind %d): reduce(%d) = %d, want %d", specRows, rows, m.kind, idx, got, idx%rows)
	}
}

// TestRowModMatchesRemainder walks the edges: row counts around powers of
// two and at the ends of the 32-bit range, indices at every multiple's
// boundary and at the advertised row count's last index, and the three kinds
// of table (not capped, capped under 2³² advertised rows, capped above).
func TestRowModMatchesRemainder(t *testing.T) {
	rowCounts := []int64{1, 2, 3, 1<<18 - 1, 1 << 18, 1<<18 + 1, 1<<31 - 1}
	specCounts := []int64{1 << 20, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 40}
	for _, rows := range rowCounts {
		checkRowMod(t, rows, rows, 0) // not capped
		checkRowMod(t, rows, rows, rows-1)
		for _, spec := range specCounts {
			if spec <= rows {
				continue
			}
			idxs := []int64{0, spec - 1, spec / 2}
			for _, k := range []int64{1, 2, 3, 1000, (spec - 1) / rows} {
				idxs = append(idxs, k*rows-1, k*rows, k*rows+1)
			}
			for _, idx := range idxs {
				if idx >= 0 && idx < spec {
					checkRowMod(t, spec, rows, idx)
				}
			}
		}
	}
}

// FuzzRowReduce lets the fuzzer look for a (advertised rows, rows, index)
// triple the reciprocal gets wrong.
func FuzzRowReduce(f *testing.F) {
	f.Add(int64(1<<32), int64(1<<18), int64(1<<32-1))
	f.Add(int64(1<<32-1), int64(1<<31-1), int64(1<<32-2))
	f.Add(int64(5000), int64(3), int64(4999))
	f.Add(int64(1<<40), int64(1<<18+1), int64(1<<40-1))
	f.Add(int64(7), int64(7), int64(6))
	f.Fuzz(func(t *testing.T, specRows, rows, idx int64) {
		if rows < 1 || specRows < rows || idx < 0 || idx >= specRows {
			t.Skip()
		}
		checkRowMod(t, specRows, rows, idx)
	})
}
