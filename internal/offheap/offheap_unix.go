//go:build unix

package offheap

import (
	"sync"
	"syscall"
	"unsafe"
)

// mappings records every live mapping by the address of its first element,
// so Free can tell a mapping from heap memory and unmap exactly what was
// mapped.
var (
	mu       sync.Mutex
	mappings = map[*float32][]byte{}
)

func mapFloats(n int) []float32 {
	b, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil // address space or a limit ran out: fall back to the heap
	}
	f := unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
	mu.Lock()
	mappings[&f[0]] = b
	mu.Unlock()
	return f
}

func unmapFloats(f []float32) {
	mu.Lock()
	b, ok := mappings[&f[0]]
	delete(mappings, &f[0])
	mu.Unlock()
	if ok {
		// Munmap fails only for arguments that do not describe a mapping;
		// b is exactly what Mmap returned.
		_ = syscall.Munmap(b)
	}
}

func mappedBytes() int64 {
	mu.Lock()
	defer mu.Unlock()
	var n int64
	for _, b := range mappings {
		n += int64(len(b))
	}
	return n
}
