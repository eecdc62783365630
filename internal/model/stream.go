package model

import (
	"math/rand"
	"sort"
	"sync"

	"microrec/internal/kernels"
	"microrec/internal/offheap"
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
// recurrence alone (kernels.Extend). Draws within one run of 273 do not
// depend on each other, which keeps the extension free of a per-draw call or
// a carried chain, and lets it run eight draws a vector.
//
// The same property makes the stream seed-addressable. The pass that first
// runs it records a checkpoint per block of blockDraws draws — the lagLong
// draws before the block and the stream position of its first value — for
// every block that carries embedding values. From a checkpoint, any block is
// the recurrence alone again: an engine of another width refills its tables
// block by block on every core, and a float reader regenerates one row by
// extending its block only as far as the row (see reader).
//
// Float32 consumes one 63-bit draw x (the low 63 bits of y) per attempt and
// resamples when float64(x)/2⁶³ rounds to 1, or when that float64 rounds to
// float32 1. Both happen exactly when x ≥ skipFrom (2⁶³ − 2³⁸ − 2⁹: float64(x)
// reaches 1 − 2⁻²⁵, the float32 round-up point, there), about once in 3·10⁷
// draws; otherwise the value is float32(float64(x)/2⁶³).

const (
	lagLong  = kernels.LagLong
	mask63   = 1<<63 - 1
	skipFrom = kernels.SkipFrom
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

// segment is one destination of the stream: n consecutive values, each
// (u*2 - 1) * scale for the stream's uniform u in [0, 1), handed to put in
// runs (off is the run's first index within the segment; vals is valid only
// during the call). Runs of one segment may reach put concurrently from
// several converters; they never overlap. A nil put skips the conversion:
// nobody needs those values this pass.
type segment struct {
	n     int
	scale float32
	put   func(off int, vals []float32)
}

// block is a run of raw draws to convert.
type block struct {
	draws []uint64 // the draws
	pos   int      // stream position of the first kept draw in draws
	skips int      // how many of draws Float32 resamples
}

// checkpoints are the saved generator states of a stream's leading blocks:
// window k holds the lagLong raw draws before block k's new ones, and pos[k]
// the stream position of block k's first kept draw. Block 0's window is the
// seed's own first draws, which are also its first draws; every later
// block's draws are the blockDraws that follow its window.
type checkpoints struct {
	// chunks hold perChunk windows each (offheap.Make): the first is sized
	// for every block the stream needs when no draw is resampled, and a
	// later one is added — never moved — only when resampled draws push the
	// stream past that.
	chunks   [][]uint64
	perChunk int
	pos      []int
}

// blockOf returns the block holding stream position pos (a recorded one).
func (c *checkpoints) blockOf(pos int) int {
	return sort.Search(len(c.pos), func(k int) bool { return c.pos[k] > pos }) - 1
}

// window returns block k's window.
func (c *checkpoints) window(k int) []uint64 {
	return c.chunks[k/c.perChunk][k%c.perChunk*lagLong:][:lagLong]
}

// record appends a checkpoint and returns its window's copy.
func (c *checkpoints) record(window []uint64, pos int) []uint64 {
	k := len(c.pos)
	if k == len(c.chunks)*c.perChunk {
		c.chunks = append(c.chunks, offheap.Make[uint64](c.perChunk*lagLong))
	}
	c.pos = append(c.pos, pos)
	w := c.window(k)
	copy(w, window)
	return w
}

// release hands the window storage back.
func (c *checkpoints) release() {
	for _, w := range c.chunks {
		offheap.Free(w)
	}
	c.chunks, c.pos = nil, nil
}

// blocksFor is how many blocks carry the first n stream positions when no
// draw among them is resampled.
func blocksFor(n int) int {
	return 1 + max(n-lagLong-1, 0)/blockDraws
}

// job is one checkpointed block for a converter to regenerate and convert.
type job struct {
	k, pos int
	window []uint64
}

// fill writes the seed's Float32 stream through segs, in order, and returns
// the checkpoints of every block that carries one of the first record stream
// positions (record must be a segment boundary). The calling goroutine runs
// the recurrence in one buffer — it stays in the core's cache — records each
// such block's checkpoint, and hands it to one of workers converters, which
// regenerate the block from it in a buffer of their own and convert it; the
// blocks past record (the FC tower, a few dozen) it converts itself. So the
// one pass that writes the tables is also the one that checkpoints them, and
// no raw draw crosses between cores: each converter reads back only the
// draws it extended itself.
func fill(seed int64, segs []segment, workers, record int) *checkpoints {
	starts := make([]int, len(segs)+1)
	for i, s := range segs {
		starts[i+1] = starts[i] + s.n
	}
	total := starts[len(segs)]
	m := sort.SearchInts(starts, record) // segs[:m] are the checkpointed ones
	cp := &checkpoints{perChunk: blocksFor(record), pos: make([]int, 0, blocksFor(record))}
	own := append([]segment(nil), segs...)
	for i := range own[:m] {
		own[i].put = nil // the converters write these
	}

	jobs := make(chan job, cap(cp.pos))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			convertJobs(jobs, segs[:m], starts)
		}()
	}
	buf := make([]uint64, lagLong+blockDraws)
	vals := make([]float32, lagLong+blockDraws)
	firstDraws(seed, buf[:lagLong])
	draws, skips := buf, 0 // the seed's own draws are the stream's first
	for _, y := range buf[:lagLong] {
		if !kept(y) {
			skips++
		}
	}
	for pos := 0; ; {
		if pos < record {
			jobs <- job{k: len(cp.pos), pos: pos, window: cp.record(buf[:lagLong], pos)}
		}
		skips += kernels.Extend(buf)
		n := len(draws) - skips
		if pos+n > record {
			convert(block{draws: draws, pos: pos, skips: skips}, own, starts, vals)
		}
		if pos += n; pos >= total {
			break
		}
		copy(buf[:lagLong], buf[len(buf)-lagLong:])
		draws, skips = buf[lagLong:], 0
	}
	close(jobs)
	wg.Wait()
	return cp
}

// convertJobs regenerates and converts the blocks it is handed, writing
// through segs (starts: their first positions), until jobs closes.
func convertJobs(jobs <-chan job, segs []segment, starts []int) {
	r := reader{buf: make([]uint64, lagLong+blockDraws), k: -1}
	vals := make([]float32, lagLong+blockDraws)
	for j := range jobs {
		draws, skips := r.draws(j.k, j.window, lagLong+blockDraws)
		convert(block{draws: draws, pos: j.pos, skips: skips}, segs, starts, vals)
	}
}

// refill writes the stream through segs again, from the checkpoints, on
// workers goroutines that each take whole blocks, on every core at once.
// segs must lie within the recorded positions.
func (c *checkpoints) refill(segs []segment, workers int) {
	starts := make([]int, len(segs)+1)
	for i, s := range segs {
		starts[i+1] = starts[i] + s.n
	}
	jobs := make(chan job, len(c.pos))
	for k, pos := range c.pos {
		jobs <- job{k: k, pos: pos, window: c.window(k)}
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			convertJobs(jobs, segs, starts)
		}()
	}
	wg.Wait()
}

// convert writes the kept draws of one block to the stream positions from
// b.pos on; starts[k] is segment k's first position, vals a converter's
// scratch of at least len(b.draws) values.
func convert(b block, segs []segment, starts []int, vals []float32) {
	draws, pos := b.draws, b.pos
	k := sort.Search(len(segs), func(k int) bool { return starts[k+1] > pos })
	for ; k < len(segs) && len(draws) > 0; k++ {
		off := pos - starts[k]
		want, scale, put := segs[k].n-off, segs[k].scale, segs[k].put
		var i, j int
		if b.skips == 0 { // nearly every block: one value per draw
			n := min(len(draws), want)
			if put != nil {
				kernels.UnitFloats(draws[:n], scale, vals)
			}
			i, j = n, n
		} else {
			for ; i < len(draws) && j < want; i++ {
				if y := draws[i]; kept(y) {
					if put != nil {
						vals[j] = (unit(y)*2 - 1) * scale
					}
					j++
				}
			}
		}
		if put != nil && j > 0 {
			put(off, vals[:j])
		}
		draws, pos = draws[i:], pos+j
		if j < want {
			return // the block ended inside this segment
		}
	}
}

// reader regenerates blocks from checkpoints on demand into its buffer,
// extending the block it holds only as far as its callers have asked: a read
// of a position near a block's start costs a few thousand draws, not
// blockDraws. Reads in ascending position order share one extension per
// block.
type reader struct {
	buf []uint64 // lagLong + blockDraws words
	// k is the block in buf (-1: none); buf[lagLong:lagLong+n] are its new
	// draws so far, skips how many of its draws (block 0: window included)
	// Float32 resamples.
	k, n, skips int
}

// draws returns block k's first want draws (fewer past the block's end) and
// how many of them are resampled; window is block k's checkpoint.
func (r *reader) draws(k int, window []uint64, want int) ([]uint64, int) {
	base := lagLong
	if k == 0 {
		base = 0 // block 0's window is its first draws
	}
	if r.k != k {
		r.k, r.n, r.skips = k, 0, 0
		copy(r.buf[:lagLong], window)
		if k == 0 {
			for _, y := range r.buf[:lagLong] {
				if !kept(y) {
					r.skips++
				}
			}
		}
	}
	if n := min(max(want-(lagLong-base), 0), blockDraws); n > r.n {
		// Extend works on any window of the buffer: the draws from r.n on
		// follow from the lagLong before them.
		r.skips += kernels.Extend(r.buf[r.n : lagLong+n])
		r.n = n
	}
	d := r.buf[base : lagLong+r.n]
	return d[:min(want, len(d))], r.skips
}

// read writes the embedding values (scale 1) at stream positions
// [pos, pos+len(dst)) to dst, regenerating from c.
func (r *reader) read(c *checkpoints, pos int, dst []float32) {
	for len(dst) > 0 {
		k := c.blockOf(pos)
		first := c.pos[k]
		draws, skips := r.draws(k, c.window(k), pos-first+len(dst))
		if skips > 0 {
			// A resampled draw shifts positions against draw indices, so the
			// prefix asked for may fall short: take the whole block.
			draws, skips = r.draws(k, c.window(k), lagLong+blockDraws)
		}
		n := valuesAt(draws, first, skips, pos, dst)
		dst, pos = dst[n:], pos+n
	}
}

// valuesAt writes the values at stream positions pos, pos+1, ... that draws
// (whose first kept draw is at position first, skips of them resampled)
// carry to dst, and returns how many it wrote.
func valuesAt(draws []uint64, first, skips, pos int, dst []float32) int {
	if skips == 0 {
		draws = draws[min(pos-first, len(draws)):]
		n := min(len(draws), len(dst))
		kernels.UnitFloats(draws[:n], 1, dst)
		return n
	}
	n := 0
	for _, y := range draws {
		if n == len(dst) {
			break
		}
		if !kept(y) {
			continue
		}
		if first >= pos {
			dst[n] = unit(y)*2 - 1
			n++
		}
		first++
	}
	return n
}
