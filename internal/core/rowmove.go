package core

import "unsafe"

// A gather row is 8 to 256 bytes. copy moves each one with a call into
// runtime.memmove, which must first find out how long the row is, and after
// any call the gather loop reloads its state from the stack (Go keeps no
// register across a call). moveRows instead switches once per block's run on
// the row length, vecBytes, and moves each row of the run as fixed-size
// values the compiler lowers to straight-line 16-byte loads and stores, with
// no call in the loop. The sizes are the rows the production models store:
// dims 4, 8, 12, 16, 24, 32 and 64 at 2 or 4 bytes a value.
//
// The values are structs, not arrays: a move between two array pointers made
// from slices may overlap partially, so the compiler hands any array above
// 16 bytes to memmove; a struct of the same size it moves inline. Above 64
// bytes a single move becomes a call into the runtime's duffcopy, so longer
// rows move in pieces of 48 or 64 bytes. Check with
// `go build -gcflags=-S ./internal/core`: the moveEach and spanEach
// instances call nothing, and moveRows and moveSpans call memmove only in
// their copy fallbacks. (moveSpans is the same moves for the tiered store's
// rows, which Resolve hands over as addresses rather than row numbers.)

type (
	bytes8  struct{ _ [8]byte }
	bytes16 struct{ _ [16]byte }
	bytes24 struct{ _ [24]byte }
	bytes32 struct{ _ [32]byte }
	bytes48 struct{ _ [48]byte }
	bytes64 struct{ _ [64]byte }
)

// moveRows moves one n-byte row per entry of rows: row rows[i] of src,
// whose rows are n bytes apart, to dst[i*stride:]. A source or destination
// row shorter than n panics before any of its bytes move.
func moveRows(dst []byte, stride int, src []byte, rows []int64, n int) {
	switch n {
	case 8:
		moveEach[bytes8](dst, stride, src, rows, 1)
	case 16:
		moveEach[bytes16](dst, stride, src, rows, 1)
	case 24:
		moveEach[bytes24](dst, stride, src, rows, 1)
	case 32:
		moveEach[bytes32](dst, stride, src, rows, 1)
	case 48:
		moveEach[bytes48](dst, stride, src, rows, 1)
	case 64:
		moveEach[bytes64](dst, stride, src, rows, 1)
	case 96:
		moveEach[bytes48](dst, stride, src, rows, 2)
	case 128:
		moveEach[bytes64](dst, stride, src, rows, 2)
	case 256:
		moveEach[bytes64](dst, stride, src, rows, 4)
	default:
		for i, row := range rows {
			to, from := dst[i*stride:], src[row*int64(n):]
			_, _ = to[n-1], from[n-1]
			copy(to[:n], from[:n])
		}
	}
}

// moveSpans is moveRows for rows that are not in one table: it moves the
// n bytes at each srcs[i] to dst[i*stride:], with the same fixed-size moves.
// Each srcs[i] must address n readable bytes (the tiered store's Resolve
// took each from a whole row's copy). A destination row shorter than n
// panics before any of its bytes move.
func moveSpans(dst []byte, stride int, srcs []unsafe.Pointer, n int) {
	switch n {
	case 8:
		spanEach[bytes8](dst, stride, srcs, 1)
	case 16:
		spanEach[bytes16](dst, stride, srcs, 1)
	case 24:
		spanEach[bytes24](dst, stride, srcs, 1)
	case 32:
		spanEach[bytes32](dst, stride, srcs, 1)
	case 48:
		spanEach[bytes48](dst, stride, srcs, 1)
	case 64:
		spanEach[bytes64](dst, stride, srcs, 1)
	case 96:
		spanEach[bytes48](dst, stride, srcs, 2)
	case 128:
		spanEach[bytes64](dst, stride, srcs, 2)
	case 256:
		spanEach[bytes64](dst, stride, srcs, 4)
	default:
		for i, p := range srcs {
			copy(dst[i*stride:][:n], unsafe.Slice((*byte)(p), n))
		}
	}
}

// moveEach is moveRows for rows of k values of R.
func moveEach[R bytes8 | bytes16 | bytes24 | bytes32 | bytes48 | bytes64](dst []byte, stride int, src []byte, rows []int64, k int) {
	var r R
	size := int(unsafe.Sizeof(r))
	n := k * size
	for i, row := range rows {
		to, from := dst[i*stride:], src[row*int64(n):]
		_, _ = to[n-1], from[n-1]
		for c := 0; c < n; c += size {
			*(*R)(unsafe.Pointer(&to[c])) = *(*R)(unsafe.Pointer(&from[c]))
		}
	}
}

// spanEach is moveSpans for rows of k values of R.
func spanEach[R bytes8 | bytes16 | bytes24 | bytes32 | bytes48 | bytes64](dst []byte, stride int, srcs []unsafe.Pointer, k int) {
	var r R
	size := int(unsafe.Sizeof(r))
	n := k * size
	for i, p := range srcs {
		to := dst[i*stride:]
		_ = to[n-1]
		for c := 0; c < n; c += size {
			*(*R)(unsafe.Pointer(&to[c])) = *(*R)(unsafe.Add(p, c))
		}
	}
}

// asBytes views s's elements as bytes.
func asBytes[T any](s []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
}
