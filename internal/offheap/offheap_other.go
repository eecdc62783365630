//go:build !unix

package offheap

// Without an anonymous-mapping primitive everything comes from the heap.

func mapFloats(n int) []float32 { return nil }

func unmapFloats(f []float32) {}

func mappedBytes() int64 { return 0 }
