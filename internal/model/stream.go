package model

import (
	"math/rand"
	"sort"
	"sync"
)

// Parameter materialisation draws one long uniform stream — every embedding
// value, then each FC layer's weights and bias — whose values are defined as
// those of rand.Rand.Float32. Calling Float32 costs an interface call several
// frames deep per value; this file produces the same stream, bit for bit,
// without it.
//
// math/rand's source is an additive lagged-Fibonacci generator: draw n is
// y[n] = y[n-607] + y[n-273] mod 2⁶⁴, and Uint64 returns y[n] itself. The
// first 607 draws are read through the public API (they encode the seeding);
// they are the generator's whole state, so every later draw follows from the
// recurrence alone. Draws within one run of 273 do not depend on each other,
// which keeps the extension loop free of a per-draw call or a carried chain.
//
// Float32 consumes one 63-bit draw x (the low 63 bits of y) per attempt and
// resamples when float64(x)/2⁶³ rounds to 1, or when that float64 rounds to
// float32 1. Both happen exactly when x ≥ skipFrom (2⁶³ − 2³⁸ − 2⁹: float64(x)
// reaches 1 − 2⁻²⁵, the float32 round-up point, there), about once in 3·10⁷
// draws; otherwise the value is float32(float64(x)/2⁶³).

const (
	lagLong  = 607 // the source's register length
	lagShort = 273 // its tap
	mask63   = 1<<63 - 1
	// skipFrom is the smallest 63-bit draw Float32 resamples.
	skipFrom = 1<<63 - 1<<38 - 1<<9
	// blockDraws is the draws one block carries to a converter: 256 KiB of
	// them, small enough to still be in a shared cache when it is read.
	blockDraws = 1 << 15
)

// kept reports whether Float32 returns a value for the raw draw y rather
// than resampling.
func kept(y uint64) bool { return y&mask63 < skipFrom }

// unit is Float32's value for a kept raw draw y.
func unit(y uint64) float32 { return float32(float64(int64(y&mask63)) / (1 << 63)) }

// firstDraws fills dst with the first len(dst) Uint64 draws of
// rand.NewSource(seed).
func firstDraws(seed int64, dst []uint64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range dst {
		dst[i] = src.Uint64()
	}
}

// extend computes buf[lagLong:] from the recurrence, buf[:lagLong] holding
// the lagLong draws before them, and returns how many of the new draws
// Float32 resamples.
func extend(buf []uint64) (skips int) {
	out := buf[lagLong:]
	long, short := buf[:len(out)], buf[lagLong-lagShort:][:len(out)]
	for i := range out {
		y := long[i] + short[i]
		out[i] = y
		if !kept(y) {
			skips++
		}
	}
	return skips
}

// segment is one destination of the stream: consecutive values land in dst,
// each as (u*2 - 1) * scale for the stream's uniform u in [0, 1).
type segment struct {
	dst   []float32
	scale float32
}

// block is a run of raw draws handed to a converter.
type block struct {
	buf   []uint64 // the buffer, returned to the pool once converted
	draws []uint64 // the draws to convert, a suffix of buf
	pos   int      // stream position of the first kept draw in draws
	skips int      // how many of draws Float32 resamples
}

// fill writes the seed's Float32 stream through segs, in order, on workers
// converter goroutines. The calling goroutine extends the raw stream block
// by block and numbers each block's first kept draw — integer compares only;
// the converters turn blocks into values at those positions, so their output
// ranges are disjoint and the first-touch page faults of fresh mappings
// overlap across cores.
func fill(seed int64, segs []segment, workers int) {
	starts := make([]int, len(segs)+1)
	for i, s := range segs {
		starts[i+1] = starts[i] + len(s.dst)
	}
	total := starts[len(segs)]
	// Four buffers a converter let the generator run ahead through the
	// converters' page-fault stalls; with one each plus one it waited
	// (production-large on a 2 vCPU Xeon: 1.0 s against 0.7–0.8 s). free
	// holds every buffer and blocks every one in flight, so neither send
	// blocks.
	free := make(chan []uint64, 4*workers)
	for i := 0; i < cap(free); i++ {
		free <- make([]uint64, lagLong+blockDraws)
	}
	blocks := make(chan block, 4*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range blocks {
				convert(b, segs, starts)
				free <- b.buf
			}
		}()
	}
	buf := <-free
	firstDraws(seed, buf[:lagLong])
	draws, skips := buf, 0 // the seed's own draws are the stream's first
	for _, y := range buf[:lagLong] {
		if !kept(y) {
			skips++
		}
	}
	for pos := 0; ; {
		skips += extend(buf)
		blocks <- block{buf: buf, draws: draws, pos: pos, skips: skips}
		if pos += len(draws) - skips; pos >= total {
			break
		}
		next := <-free
		copy(next[:lagLong], buf[len(buf)-lagLong:])
		buf, draws, skips = next, next[lagLong:], 0
	}
	close(blocks)
	wg.Wait()
}

// convert writes the kept draws of one block to the stream positions from
// b.pos on; starts[k] is segment k's first position.
func convert(b block, segs []segment, starts []int) {
	draws, pos := b.draws, b.pos
	k := sort.Search(len(segs), func(k int) bool { return starts[k+1] > pos })
	for ; k < len(segs) && len(draws) > 0; k++ {
		dst, scale := segs[k].dst[pos-starts[k]:], segs[k].scale
		var i, j int
		if b.skips == 0 { // nearly every block: one value per draw
			n := min(len(draws), len(dst))
			for i, y := range draws[:n] {
				dst[i] = (unit(y)*2 - 1) * scale
			}
			i, j = n, n
		} else {
			for ; i < len(draws) && j < len(dst); i++ {
				if y := draws[i]; kept(y) {
					dst[j] = (unit(y)*2 - 1) * scale
					j++
				}
			}
		}
		draws, pos = draws[i:], pos+j
		if j < len(dst) {
			return // the block ended inside this segment
		}
	}
}
