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
			n := prefetchRowsLines(unsafe.Pointer(&table[0]), uintptr(dim)*4, &rows[0], len(rows), &got[0])
			if !slices.Equal(got[:n], want) {
				t.Fatalf("dim %d, table at byte %d: lines %x, want %x", dim, 4*lead, got[:n], want)
			}
			PrefetchRows(table, dim, rows) // the hinting twin runs over the same addresses
		}
	}
}
