//go:build amd64 && !noasm

package kernels

import "unsafe"

// prefetchRows is the loop of PrefetchRows and PrefetchSpans: for each of
// the n indices at rows, one PREFETCHT0 per line of the rowBytes-long row at
// base + index*stride. Called directly (not through a variable) so the
// caller's index vector does not escape to the heap. Implemented in
// kernels_amd64.s.
//
//go:noescape
func prefetchRows(base unsafe.Pointer, stride uintptr, rows *int64, n int, rowBytes uintptr)

// prefetchRowsLines runs prefetchRows' address walk but stores each line
// address to out instead of hinting it, and returns how many it stored; out
// must have room. It shares the walk's instructions with prefetchRows (one
// macro, two expansions), which is what lets a test see what a hint
// instruction leaves no trace of.
//
//go:noescape
func prefetchRowsLines(base unsafe.Pointer, stride uintptr, rows *int64, n int, rowBytes uintptr, out *uintptr) int
