package kernels

import "unsafe"

// cacheLineBytes is the prefetch granularity. 64 bytes on every CPU this
// code targets; a wrong guess only costs an extra hint.
const cacheLineBytes = 64

// The hint is PREFETCHT0 — fetch into every cache level — and not the
// non-temporal PREFETCHNTA a use-once row would suggest. The gather hints a
// window of rows and reads them afterwards (see gatherWindow in
// internal/core); a non-temporal line may occupy only a fraction of L1's
// ways, so from about a hundred lines in flight the window's later hints
// evict its earlier ones before they are read and the rows are fetched from
// DRAM twice. Measured on the large model at batch 64 (CHANGES.md, PR 15,
// fastest of seven runs each): NTA 56–61 ns per lookup at a window of 16–32
// rows, 69 at 64, 109 at 128; T0 50–60 from 16 to 128 — and on the repository
// benchmark's embed_lookup NTA at its best window reads 150 k queries/s where
// T0 reads 188 k. The cost of T0 is that gathered rows pass through L2, where
// the dense stage keeps its weights; dense_sat does not resolve one (27 runs
// a side: 67.8 k against 64.6 k qps with identical quartiles).

// PrefetchRows hints every cache line touched by rows[i] of a row-major
// table of dim-element rows, for each i, in one call: the gather resolves a
// window of row indices first and hands each block's run of them over whole,
// so the hints issue back to back and the memory system has all of them
// outstanding at once. Rows are rarely line-aligned (a 12-float row is 48
// bytes; any row after a 4-float neighbour starts mid-line), so each row's
// walk goes from the line of its first byte to the line of its last, each
// exactly once, not in 64-byte steps from the row's start — which would leave
// the tail's line unhinted. Rows must be in range for data. Never faults:
// prefetch instructions are hints, so issuing one for a not-yet-resident mmap
// page is safe. No-op without an optimized path (other architectures, the
// noasm tag).
//
//microrec:noalloc
func PrefetchRows[T any](data []T, dim int, rows []int64) {
	if len(rows) == 0 || dim <= 0 || len(data) == 0 {
		return
	}
	n := uintptr(dim) * unsafe.Sizeof(data[0])
	prefetchRows(unsafe.Pointer(&data[0]), n, &rows[0], len(rows), n)
}

// PrefetchSpans is PrefetchRows for rows that are not in one table: it hints
// every cache line of the n bytes at each spans[i], in one call. The tiered
// store resolves a run of rows into the copies a read will return, some
// pinned in DRAM and some in the mmap'd cold file, and hints them all
// through this. Same walk, same contract.
//
//microrec:noalloc
func PrefetchSpans(spans []unsafe.Pointer, n int) {
	if len(spans) == 0 || n <= 0 {
		return
	}
	// Each address is the row's "index" into a table at address 0 whose
	// rows are one byte apart.
	prefetchRows(nil, 1, (*int64)(unsafe.Pointer(&spans[0])), len(spans), uintptr(n))
}
