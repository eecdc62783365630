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

// prefetchLine is the active single-line prefetch, a no-op unless an
// architecture init installed a real hint instruction. Indirect-call cost is
// ~2ns, negligible against the ~100ns DRAM access it hides; the no-op
// default keeps the portable build free of unsafe assumptions.
var prefetchLine = func(p unsafe.Pointer) {}

// PrefetchRow hints every cache line one embedding row (or any contiguous
// span of fixed-size elements) touches for a near-future read. Rows are rarely line-aligned
// (a 12-float row is 48 bytes; any row after a 4-float neighbour starts
// mid-line), so the walk goes line by line from the line of the first byte to
// the line of the last, not in 64-byte steps from the row's start — which
// would leave the tail's line unhinted. The tiered store calls this for the
// copy of a row its next read will return; the gather hints DRAM-resident
// tables a block at a time through PrefetchRows.
//
// No-op on a nil/empty row, under the noasm tag, and on architectures
// without a wired hint. Never faults: prefetch instructions are hints, so
// issuing one for a not-yet-resident mmap page is safe.
//
//microrec:noalloc
func PrefetchRow[T any](row []T) {
	if len(row) == 0 {
		return
	}
	p := unsafe.Pointer(&row[0])
	n := uintptr(len(row)) * unsafe.Sizeof(row[0])
	prefetchLine(p)
	// The remaining hints land on the line boundaries inside the row, so
	// every pointer handed out stays within it.
	for off := cacheLineBytes - uintptr(p)%cacheLineBytes; off < n; off += cacheLineBytes {
		prefetchLine(unsafe.Add(p, off))
	}
}

// PrefetchRows hints every cache line touched by rows[i] of a row-major
// table of dim-element rows, for each i, in one call: the gather resolves a
// window of row indices first and hands each block's run of them over whole,
// so the hints issue back to back and the memory system has all of them
// outstanding at once. The per-row contract is PrefetchRow's — each line in
// [&row[0], &row[dim-1]] exactly once — minus the indirect call per line.
// Rows must be in range for data; like every hint it never faults. No-op
// without an optimized path (other architectures, the noasm tag).
//
//microrec:noalloc
func PrefetchRows[T any](data []T, dim int, rows []int64) {
	if len(rows) == 0 || dim <= 0 || len(data) == 0 {
		return
	}
	prefetchRows(unsafe.Pointer(&data[0]), uintptr(dim)*unsafe.Sizeof(data[0]), &rows[0], len(rows))
}
