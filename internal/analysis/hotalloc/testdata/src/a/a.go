// Package a is the hotalloc fixture: one annotated function per flagged
// construct, plus an annotated function exercising every allowed idiom and
// an unannotated allocator the analyzer must ignore.
package a

import "fmt"

type scratch struct {
	buf  []int64
	tmp  [8]int64
	sink any
}

//microrec:noalloc
func makeBad(n int) []int64 {
	return make([]int64, n) // want "make allocates in noalloc function makeBad"
}

//microrec:noalloc
func newBad() *scratch {
	return new(scratch) // want "new allocates in noalloc function newBad"
}

//microrec:noalloc
func appendBad(s *scratch, v int64) {
	s.buf = append(s.buf, v) // want "append allocates in noalloc function appendBad"
}

//microrec:noalloc
func sliceLitBad() []int64 {
	return []int64{1, 2, 3} // want "slice literal allocates in noalloc function sliceLitBad"
}

//microrec:noalloc
func mapLitBad() map[int]int {
	return map[int]int{1: 2} // want "map literal allocates in noalloc function mapLitBad"
}

//microrec:noalloc
func addrLitBad() *scratch {
	return &scratch{} // want "&composite literal escapes to heap in noalloc function addrLitBad"
}

//microrec:noalloc
func closureBad() func() {
	return func() {} // want "function literal \\(closure\\) in noalloc function closureBad"
}

//microrec:noalloc
func goBad(ch chan int) {
	go fn(ch) // want "go statement in noalloc function goBad"
}

func fn(chan int) {}

//microrec:noalloc
func concatBad(a, b string) string {
	return a + b // want "string concatenation allocates in noalloc function concatBad"
}

//microrec:noalloc
func stringConvBad(b []byte) string {
	return string(b) // want "string conversion copies in noalloc function stringConvBad"
}

//microrec:noalloc
func boxBad(s *scratch, v int64) {
	s.sink = v // want "boxes int64 into interface in noalloc function boxBad"
}

//microrec:noalloc
func boxArgBad(v int64) {
	sink(v) // want "argument boxes int64 into interface in noalloc function boxArgBad"
}

func sink(any) {}

//microrec:noalloc
func fmtBad(v int64) string {
	return fmt.Sprintf("%d", v) // want "call to fmt\\.Sprintf allocates in noalloc function fmtBad"
}

// allowedGood exercises every idiom the hot path legitimately uses: value
// struct literals, address-of locals, slicing, indexing, type assertions,
// channel sends of pointers, pointer boxing, arithmetic.
//
//microrec:noalloc
func allowedGood(s *scratch, rows []int64, ch chan *scratch, v any) int64 {
	var w [4]int64
	fill(&w)
	local := scratch{buf: rows}
	head := rows[:2]
	var acc int64
	for i := range head {
		acc += head[i] * w[i&3]
	}
	if p, ok := v.(*scratch); ok {
		acc += p.tmp[0]
	}
	s.sink = &local // pointers box without allocating
	select {
	case ch <- s:
	default:
	}
	return acc
}

func fill(*[4]int64) {}

// genericGood narrows into a type parameter: T's underlying type is its
// constraint interface, but the store is at the instantiated width, not a
// box.
//
//microrec:noalloc
func genericGood[T int16 | int32](dst []T, v int64) {
	dst[0] = T(v)
}

// unannotatedGood allocates freely: no directive, no reports.
func unannotatedGood(n int) []int64 {
	out := make([]int64, 0, n)
	out = append(out, int64(n))
	return out
}
