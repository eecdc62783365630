//go:build unix

package offheap

import (
	"sync"
	"syscall"
	"unsafe"
)

// mappings records every live mapping by the address of its first byte, so
// Free can tell a mapping from heap memory and unmap exactly what was mapped.
var (
	mu       sync.Mutex
	mappings = map[unsafe.Pointer][]byte{}
)

func mapBytes(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil // address space or a limit ran out: fall back to the heap
	}
	mu.Lock()
	mappings[unsafe.Pointer(&b[0])] = b
	mu.Unlock()
	return b
}

func unmapBytes(p unsafe.Pointer) {
	mu.Lock()
	b, ok := mappings[p]
	delete(mappings, p)
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
