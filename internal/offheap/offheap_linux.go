package offheap

import "syscall"

// adviseHuge asks the kernel to back the mapping with transparent huge pages
// (see the package comment). The advice is a hint: where huge pages are off,
// or none can be had, the mapping keeps its 4 KiB pages and works the same.
func adviseHuge(b []byte) {
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
}
