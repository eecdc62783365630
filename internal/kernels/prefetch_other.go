//go:build !amd64 || noasm

package kernels

import "unsafe"

// prefetchRows has no portable form: without a hint instruction there is
// nothing useful to do with the addresses.
func prefetchRows(base unsafe.Pointer, stride uintptr, rows *int64, n int, rowBytes uintptr) {}
