//go:build !unix

package offheap

import "unsafe"

// Without an anonymous-mapping primitive everything comes from the heap.

func mapBytes(n int) []byte { return nil }

func unmapBytes(p unsafe.Pointer) {}

func mappedBytes() int64 { return 0 }
