//go:build amd64 && !noasm

package kernels

import (
	"slices"
	"testing"
	"unsafe"
)

// TestPrefetchRowsHintsEveryLine checks the block hint's address walk — read
// back through prefetchRowsLines, the same macro with a store in place of the
// hint — against the per-row contract: for every row length and every
// alignment a table row can have, each index's row has every line from its
// first byte to its last named exactly once, in index order.
func TestPrefetchRowsHintsEveryLine(t *testing.T) {
	const tableRows = 40
	for dim := 1; dim <= 80; dim++ {
		data := lineAlignedFloats(4 + tableRows*dim)
		for lead := 0; lead < 4; lead++ { // table base at byte 0, 4, 8, 12 of a line
			table := data[lead : lead+tableRows*dim]
			rows := []int64{0, 1, 17, 2, tableRows - 1, 17}
			var want []uintptr
			for _, r := range rows {
				want = append(want, linesOf(unsafe.Pointer(&table[int(r)*dim]), 4*dim)...)
			}
			got := make([]uintptr, len(want)+8)
			n := prefetchRowsLines(unsafe.Pointer(&table[0]), uintptr(dim)*4, &rows[0], len(rows), uintptr(dim)*4, &got[0])
			if !slices.Equal(got[:n], want) {
				t.Fatalf("dim %d, table at byte %d: lines %x, want %x", dim, 4*lead, got[:n], want)
			}
			PrefetchRows(table, dim, rows) // the hinting twin runs over the same addresses
		}
	}
}

// TestPrefetchSpansHintsEveryLine is the same check for the span hint, whose
// rows are addresses rather than indices into one table: for every offset
// within a line and every span length, each span has every line from its
// first byte to its last named exactly once, in span order — including the
// line that holds only the tail of a span that does not start on a line
// boundary, which a walk in 64-byte steps from the span's start misses.
func TestPrefetchSpansHintsEveryLine(t *testing.T) {
	buf := lineAlignedFloats(3*cacheLineBytes/4 + 16 + 80)
	for off := 0; off < 16; off++ { // float offset within the line: bytes 0, 4, ..., 60
		for n := 1; n <= 80; n++ {
			// Three spans out of address order, the last one a line further on.
			spans := []unsafe.Pointer{unsafe.Pointer(&buf[off+16]), unsafe.Pointer(&buf[off]), unsafe.Pointer(&buf[off+3*16])}
			var want []uintptr
			for _, p := range spans {
				want = append(want, linesOf(p, 4*n)...)
			}
			got := make([]uintptr, len(want)+8)
			k := prefetchRowsLines(nil, 1, (*int64)(unsafe.Pointer(&spans[0])), len(spans), uintptr(4*n), &got[0])
			if !slices.Equal(got[:k], want) {
				t.Fatalf("spans at byte offset %d, %d floats: lines %x, want %x", 4*off, n, got[:k], want)
			}
			PrefetchSpans(spans, 4*n) // the hinting twin runs over the same addresses
		}
	}
}

// linesOf returns the cache lines the n bytes at p touch, first to last.
func linesOf(p unsafe.Pointer, n int) []uintptr {
	var lines []uintptr
	first := uintptr(p) &^ (cacheLineBytes - 1)
	last := (uintptr(p) + uintptr(n) - 1) &^ (cacheLineBytes - 1)
	for a := first; a <= last; a += cacheLineBytes {
		lines = append(lines, a)
	}
	return lines
}

// lineAlignedFloats returns a float32 slice whose first element starts a
// cache line, so tests can place a row at a chosen offset within a line.
func lineAlignedFloats(n int) []float32 {
	buf := make([]float32, n+cacheLineBytes/4)
	skip := (cacheLineBytes - uintptr(unsafe.Pointer(&buf[0]))%cacheLineBytes) % cacheLineBytes / 4
	return buf[skip : int(skip)+n]
}
