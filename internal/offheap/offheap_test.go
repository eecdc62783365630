package offheap

import (
	"runtime"
	"sync"
	"testing"
)

// TestFloatsZeroedAndWritable covers both sides of the size threshold: the
// memory is zeroed, of the requested length and capacity, writable end to
// end, and Free accepts it.
func TestFloatsZeroedAndWritable(t *testing.T) {
	for _, n := range []int{0, 1, minMapped - 1, minMapped, minMapped + 1, 3*minMapped + 17} {
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
	Free(nil)
	Free(make([]float32, 8))
	heap := make([]float32, 2*minMapped)
	Free(heap)
	heap[0] = 1 // still ours

	f := Floats(2 * minMapped)
	Free(f[1:]) // not the slice Floats returned: ignored
	f[0] = 1    // so the mapping is still there
	Free(f)
	Free(f) // already gone
}

// TestMappedMemoryStaysOutOfTheHeap is the point of the package: a large
// allocation does not move the collector's live-heap accounting.
func TestMappedMemoryStaysOutOfTheHeap(t *testing.T) {
	probe := mapFloats(minMapped)
	if probe == nil {
		t.Skip("no anonymous mappings on this platform")
	}
	unmapFloats(probe)
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
	probe := mapFloats(minMapped)
	if probe == nil {
		t.Skip("no anonymous mappings on this platform")
	}
	unmapFloats(probe)
	before := MappedBytes()
	f := Floats(minMapped + 5)
	small := Floats(minMapped - 1)
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
				f := Floats(minMapped + i)
				f[len(f)-1] = 1
				Free(f)
			}
		}()
	}
	wg.Wait()
}
