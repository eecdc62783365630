package offheap

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// minFloats is the smallest float32 request served from a mapping.
const minFloats = minMapped / 4

// Floats is Make at the width most of these tests use.
func Floats(n int) []float32 { return Make[float32](n) }

// mappingWorks reports whether the platform maps anonymous memory.
func mappingWorks() bool {
	b := mapBytes(minMapped)
	if b == nil {
		return false
	}
	unmapBytes(unsafe.Pointer(&b[0]))
	return true
}

// TestFloatsZeroedAndWritable covers both sides of the size threshold: the
// memory is zeroed, of the requested length and capacity, writable end to
// end, and Free accepts it.
func TestFloatsZeroedAndWritable(t *testing.T) {
	for _, n := range []int{0, 1, minFloats - 1, minFloats, minFloats + 1, 3*minFloats + 17} {
		f := Floats(n)
		if len(f) != n || cap(f) != n {
			t.Fatalf("Floats(%d): len %d cap %d", n, len(f), cap(f))
		}
		for i, v := range f {
			if v != 0 {
				t.Fatalf("Floats(%d)[%d] = %v, want 0", n, i, v)
			}
		}
		for i := range f {
			f[i] = float32(i)
		}
		if n > 0 && f[n-1] != float32(n-1) {
			t.Fatalf("Floats(%d): last element reads back %v", n, f[n-1])
		}
		Free(f)
	}
}

// TestFreeIgnoresWhatItDidNotMap pins the contract owners rely on: heap
// slices of any size, a sub-slice of a mapping, and a second Free are all
// no-ops rather than faults.
func TestFreeIgnoresWhatItDidNotMap(t *testing.T) {
	Free[float32](nil)
	Free(make([]float32, 8))
	heap := make([]float32, 2*minFloats)
	Free(heap)
	heap[0] = 1 // still ours

	f := Floats(2 * minFloats)
	Free(f[1:]) // not the slice Floats returned: ignored
	f[0] = 1    // so the mapping is still there
	Free(f)
	Free(f) // already gone
}

// TestMappedMemoryStaysOutOfTheHeap is the point of the package: a large
// allocation does not move the collector's live-heap accounting.
func TestMappedMemoryStaysOutOfTheHeap(t *testing.T) {
	if !mappingWorks() {
		t.Skip("no anonymous mappings on this platform")
	}
	const n = 16 << 20 // 64 MiB
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := Floats(n)
	for i := 0; i < n; i += 1024 {
		f[i] = 1
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("heap grew %d bytes around a %d-byte mapped allocation", grew, n*4)
	}
	Free(f)
}

// TestMappedBytesCountsLiveMappings checks the registry sum: a mapped
// allocation adds its bytes, a heap-served one adds none, and Free takes them
// away again.
func TestMappedBytesCountsLiveMappings(t *testing.T) {
	if !mappingWorks() {
		t.Skip("no anonymous mappings on this platform")
	}
	before := MappedBytes()
	f := Floats(minFloats + 5)
	small := Floats(minFloats - 1)
	if got := MappedBytes() - before; got != int64(len(f))*4 {
		t.Errorf("MappedBytes grew %d, want %d", got, len(f)*4)
	}
	Free(f)
	Free(small)
	if got := MappedBytes(); got != before {
		t.Errorf("after Free MappedBytes = %d, want %d", got, before)
	}
}

// TestConcurrentAllocFree exercises the registry under -race.
func TestConcurrentAllocFree(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				f := Floats(minFloats + i)
				f[len(f)-1] = 1
				Free(f)
			}
		}()
	}
	wg.Wait()
}

// TestMakeAtEveryWidth maps each element type the engine stores at the same
// byte threshold: what is mapped depends on bytes, not on element count.
func TestMakeAtEveryWidth(t *testing.T) {
	if !mappingWorks() {
		t.Skip("no anonymous mappings on this platform")
	}
	before := MappedBytes()
	a, b, c := Make[int16](minMapped/2), Make[int32](minMapped/4), Make[uint64](minMapped/8-1)
	if !mapped[int16](len(a)) || !mapped[int32](len(b)) || mapped[uint64](len(c)) {
		t.Fatal("mapped disagrees with the byte threshold")
	}
	if got := MappedBytes() - before; got != 2*minMapped {
		t.Errorf("MappedBytes grew %d, want %d", got, 2*minMapped)
	}
	a[len(a)-1], b[len(b)-1] = -1, -1
	Free(a)
	Free(b)
	Free(c)
	if got := MappedBytes(); got != before {
		t.Errorf("after Free MappedBytes = %d, want %d", got, before)
	}
}
