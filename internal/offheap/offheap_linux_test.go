package offheap

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// TestMappingsAskForHugePages checks that a mapping of at least one huge page
// carries the MADV_HUGEPAGE advice: the kernel lists the range in
// /proc/self/smaps with "hg" among its VmFlags. Whether huge pages then back
// it is the kernel's choice (transparent_hugepage may be "never"), so only
// the advice is pinned.
func TestMappingsAskForHugePages(t *testing.T) {
	f := Make[int32](4 << 20 / 4) // 4 MiB: at least one aligned 2 MiB page
	defer Free(f)
	if !mapped[int32](len(f)) {
		t.Fatal("a 4 MiB request was not mapped")
	}
	flags, err := vmFlags(uintptr(unsafe.Pointer(&f[0])))
	if err != nil {
		t.Fatal(err)
	}
	for _, fl := range flags {
		if fl == "hg" {
			return
		}
	}
	t.Errorf("mapping VmFlags %v carry no hg (MADV_HUGEPAGE)", flags)
}

// vmFlags returns the VmFlags of the /proc/self/smaps entry whose range
// holds addr.
func vmFlags(addr uintptr) ([]string, error) {
	file, err := os.Open("/proc/self/smaps")
	if err != nil {
		return nil, err
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	in := false
	for sc.Scan() {
		line := sc.Text()
		var lo, hi uintptr
		if n, _ := fmt.Sscanf(line, "%x-%x ", &lo, &hi); n == 2 {
			in = lo <= addr && addr < hi
			continue
		}
		if rest, ok := strings.CutPrefix(line, "VmFlags:"); ok && in {
			return strings.Fields(rest), nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("no smaps entry with VmFlags holds %#x", addr)
}
