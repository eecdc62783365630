// Package offheap allocates the serving tier's large tables — embedding
// tables at the datapath's width, the parameter stream's checkpoints — outside
// the Go heap.
//
// The collector paces itself on the live heap: at the default GOGC it starts
// a cycle when the heap has doubled since the last one. An engine's embedding
// tables are immutable, pointer-free and live exactly as long as the engine,
// so they never become garbage — but counted in the live heap,
// production-small's 140 MB of them entitle the process to another 140 MB of
// request garbage before a cycle starts, and peak resident memory is the sum. Outside the heap they cost their own size
// and the collector paces on what actually churns.
//
// The price is manual lifetime: memory from Make must be handed back with
// Free by its one owner (core.Engine.Close for its tables,
// model.Parameters.Release for the checkpoints), and must not be touched
// afterwards — the collector cannot see slices into it.
// Memory that is never freed stays mapped until the process exits. Small
// requests are served from the heap, so tests and small models never meet
// any of this.
//
// Mappings ask for transparent huge pages (madvise MADV_HUGEPAGE, on Linux;
// offheap_linux.go). A uniform embedding lookup touches about one 4 KiB page
// per row, and a page the TLB does not hold costs a page walk before the
// row's fetch can start: production-large's 363 MB of tables at the
// repository benchmark's cap are ≈ 89 000 small pages but ≈ 175 huge ones.
// Measured on a 2-vCPU Xeon virtual machine (CHANGES.md): first touch of
// 400 MB took 0.07–0.41 s with the advice against 0.23–0.30 s without it, and
// all 400 MB landed in huge pages; the advice alone took production-large's
// uniform gather at batch 64 from 37–41 to 28–34 ns a lookup
// (BenchmarkGatherMiss). The advice was once measured the other way: on a
// virtual machine whose hypervisor took free memory back, the first write to
// a gigabyte of huge pages took 19–40 s against 4–7 s for small ones. An
// engine build's setup time is where that would show again.
package offheap

import "unsafe"

// Elem is what a mapping may hold: pointer-free fixed-size words.
type Elem interface {
	~int16 | ~int32 | ~float32 | ~uint64
}

// minMapped is the smallest request, in bytes, served from a mapping
// (1 MiB). Smaller tables gain nothing measurable and would cost a
// page-granular mapping each.
const minMapped = 1 << 20

// mapped reports whether a request of n elements of T is served from a
// mapping (where the platform has one) rather than the heap.
func mapped[T Elem](n int) bool {
	var zero T
	return n*int(unsafe.Sizeof(zero)) >= minMapped
}

// Make returns n zeroed elements of T: a private anonymous mapping when they
// take at least minMapped bytes and the platform has one, heap memory
// otherwise. The result's length and capacity are both n.
func Make[T Elem](n int) []T {
	if mapped[T](n) {
		var zero T
		if b := mapBytes(n * int(unsafe.Sizeof(zero))); b != nil {
			return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
		}
	}
	return make([]T, n)
}

// Free releases s if it is the whole slice a mapped Make call returned, and
// does nothing otherwise (heap memory, a slice already freed) — so an owner
// can free whatever it holds without knowing where it came from.
func Free[T Elem](s []T) {
	if mapped[T](len(s)) {
		unmapBytes(unsafe.Pointer(&s[0]))
	}
}

// MappedBytes returns the bytes held in live mappings: every Make result
// that came from a mapping and has not been freed. Heap-served requests do
// not count. Tests use it to pin what an owner maps and frees.
func MappedBytes() int64 { return mappedBytes() }
