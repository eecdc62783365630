package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"microrec/internal/model"
)

// fixedRowBytes are the row lengths moveRows moves as fixed-size values;
// every other length takes its copy fallback.
var fixedRowBytes = []int{8, 16, 24, 32, 48, 64, 96, 128, 256}

// TestMoveRowsMatchesCopy checks moveRows, and moveSpans over the same rows
// given as addresses, against copy for every length from 1 to 300 bytes, at
// several destination offsets and strides: each listed row lands where copy
// would put it, and no byte around the rows changes.
func TestMoveRowsMatchesCopy(t *testing.T) {
	const srcRows = 5
	rows := []int64{3, 0, 4, 4, 1}
	for n := 1; n <= 300; n++ {
		src := make([]byte, srcRows*n)
		for i := range src {
			src[i] = byte(i*131 + 7)
		}
		spans := make([]unsafe.Pointer, len(rows))
		for i, r := range rows {
			spans[i] = unsafe.Pointer(&src[int(r)*n])
		}
		for _, off := range []int{0, 1, 2, 7, 16, 33} {
			for _, gap := range []int{0, 5, 64} {
				stride := n + gap
				dst := bytes.Repeat([]byte{0xa5}, off+len(rows)*stride+64)
				want := bytes.Clone(dst)
				for i, r := range rows {
					copy(want[off+i*stride:][:n], src[int(r)*n:][:n])
				}
				moveRows(dst[off:], stride, src, rows, n)
				if !bytes.Equal(dst, want) {
					t.Fatalf("moveRows of %d-byte rows to offset %d, stride %d differs from copy", n, off, stride)
				}
				dst = bytes.Repeat([]byte{0xa5}, len(dst))
				moveSpans(dst[off:], stride, spans, n)
				if !bytes.Equal(dst, want) {
					t.Fatalf("moveSpans of %d-byte rows to offset %d, stride %d differs from copy", n, off, stride)
				}
			}
		}
	}
}

// TestMoveRowsPanicsOnShortRows checks the bounds: a source or destination
// row one byte short panics before any of its bytes move, even where the
// slice's capacity would hold the row.
func TestMoveRowsPanicsOnShortRows(t *testing.T) {
	for n := 1; n <= 300; n++ {
		src := bytes.Repeat([]byte{1}, 2*n)
		dst := make([]byte, 2*n)
		for _, tc := range []struct {
			name     string
			dst, src []byte
			rows     []int64
		}{
			{"short dst", dst[:n-1], src, []int64{0}},
			{"short src", dst, src[:n-1], []int64{0}},
			{"src row past the end", dst, src[:2*n-1], []int64{1}},
			{"second dst row short", dst[:2*n-1], src, []int64{0, 1}},
		} {
			clear(dst)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: moveRows of %d-byte rows did not panic", tc.name, n)
					}
				}()
				moveRows(tc.dst, n, tc.src, tc.rows, n)
			}()
			// Every case's last row is the short one; the rows before it move.
			if moved := len(tc.rows) - 1; !bytes.Equal(dst[moved*n:], make([]byte, 2*n-moved*n)) {
				t.Fatalf("%s: moveRows of %d-byte rows wrote the short row before panicking", tc.name, n)
			}
		}
	}
}

// rowMoves records the row lengths, in bytes, an engine's gather moves at
// each plane width, so the bit-identity tests can show they reached every
// case of moveRows.
type rowMoves map[int]map[int]bool

func (m rowMoves) add(spec *model.Spec, bits int) {
	if m[bits] == nil {
		m[bits] = map[int]bool{}
	}
	for _, ts := range spec.Tables {
		m[bits][ts.Dim*bits/8] = true
	}
}

// check fails t unless every fixed-size move and the copy fallback were
// reached at both widths.
func (m rowMoves) check(t *testing.T) {
	t.Helper()
	for _, bits := range []int{16, 32} {
		var missing []string
		fallback := false
		for n := range m[bits] {
			fallback = fallback || !slices.Contains(fixedRowBytes, n)
		}
		if !fallback {
			missing = append(missing, "copy")
		}
		for _, n := range fixedRowBytes {
			if !m[bits][n] {
				missing = append(missing, fmt.Sprint(n))
			}
		}
		if missing != nil {
			t.Errorf("at %d bits no table has rows of %v bytes: the random specs miss those moves", bits, missing)
		}
	}
}
