//go:build unix && !linux

package offheap

// adviseHuge is Linux's MADV_HUGEPAGE advice; other platforms map small
// pages.
func adviseHuge(b []byte) {}
