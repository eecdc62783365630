package model

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Seeds whose Float32 stream resamples early: draw 19 575 of seed 1622 (in
// the first block) and draw 51 693 of seed 51 (in the second) are at or above
// skipFrom. Without them no test would meet a resample: it happens about once
// in 3·10⁷ draws.
const (
	skipSeedFirstBlock = 1622
	skipSeedLaterBlock = 51
)

// eachDraw calls f with the first n raw draws of the seed's stream, extended
// block by block the way fill does.
func eachDraw(seed int64, n int, f func(y uint64)) {
	buf := make([]uint64, lagLong+blockDraws)
	firstDraws(seed, buf[:lagLong])
	draws := buf
	for {
		extend(buf)
		for _, y := range draws {
			if n == 0 {
				return
			}
			f(y)
			n--
		}
		copy(buf[:lagLong], buf[len(buf)-lagLong:])
		draws = buf[lagLong:]
	}
}

var streamSeeds = []int64{0, 1, -3, 7, 1<<31 - 1, 1 << 31, 1 << 40, skipSeedFirstBlock, skipSeedLaterBlock}

// TestStreamMatchesMathRand pins the recurrence to the source it replaces:
// raw draws equal Rand.Uint64, and kept draws through unit equal Rand.Float32,
// over 10 M draws a seed (1 M under the race detector: one goroutine, nothing
// for it to find).
func TestStreamMatchesMathRand(t *testing.T) {
	n := 10_000_000
	if raceEnabled {
		n = 1_000_000
	}
	for _, seed := range streamSeeds {
		r := rand.New(rand.NewSource(seed))
		i, bad := 0, false
		eachDraw(seed, n, func(y uint64) {
			if want := r.Uint64(); y != want && !bad {
				t.Errorf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, i, y, want)
				bad = true
			}
			i++
		})
		r = rand.New(rand.NewSource(seed))
		i, bad = 0, false
		eachDraw(seed, n, func(y uint64) {
			if !kept(y) {
				return
			}
			if got, want := unit(y), r.Float32(); math.Float32bits(got) != math.Float32bits(want) && !bad {
				t.Errorf("seed %d: Float32 value %d = %v, math/rand %v", seed, i, got, want)
				bad = true
			}
			i++
		})
	}
}

// scriptedSource plays back fixed 63-bit draws, so a test can ask math/rand
// what Float32 does with one particular draw.
type scriptedSource struct {
	next  []int64
	calls int
}

func (s *scriptedSource) Int63() int64 {
	v := s.next[0]
	s.next = s.next[1:]
	s.calls++
	return v
}

func (s *scriptedSource) Seed(int64) {}

// TestSkipThresholdExhaustive checks kept and unit against math/rand's
// Float32 for every 63-bit draw within 2²⁰ of skipFrom and the top 2²¹: a
// draw is kept exactly when Float32 returns from it without resampling, and
// then yields the same value.
func TestSkipThresholdExhaustive(t *testing.T) {
	src := &scriptedSource{}
	r := rand.New(src)
	check := func(x int64) {
		src.next, src.calls = append(src.next[:0], x, 0), 0
		f := r.Float32()
		resampled := src.calls > 1
		if kept(uint64(x)) == resampled {
			t.Fatalf("draw %#x: kept %v, math/rand resampled %v", x, kept(uint64(x)), resampled)
		}
		if !resampled && math.Float32bits(unit(uint64(x))) != math.Float32bits(f) {
			t.Fatalf("draw %#x: unit %v, math/rand %v", x, unit(uint64(x)), f)
		}
	}
	for x := int64(skipFrom - 1<<20); x < skipFrom+1<<20; x++ {
		check(x)
	}
	for x := int64(mask63 - 1<<21 + 1); x > 0; x++ { // stops past mask63
		check(x)
	}
	// The high bit of a raw draw is not part of the 63-bit value.
	if !kept(1<<63|(skipFrom-1)) || kept(1<<63|skipFrom) {
		t.Error("kept reads bit 63")
	}
}

// oldMaterialize is the per-draw loop Materialize replaced, kept as the
// reference its output must equal bit for bit. It returns the arrays in draw
// order: every table, then each layer's weights and bias.
func oldMaterialize(s *Spec, opts MaterializeOptions) [][]float32 {
	maxRows := opts.MaxRowsPerTable
	if maxRows == 0 {
		maxRows = DefaultMaxRows
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var arrays [][]float32
	for _, t := range s.Tables {
		data := make([]float32, int(min(t.Rows, maxRows))*t.Dim)
		for j := range data {
			data[j] = rng.Float32()*2 - 1
		}
		arrays = append(arrays, data)
	}
	for _, d := range s.LayerDims() {
		in, out := d[0], d[1]
		w := make([]float32, in*out)
		scale := float32(1 / math.Sqrt(float64(in)))
		for j := range w {
			w[j] = (rng.Float32()*2 - 1) * scale
		}
		b := make([]float32, out)
		for j := range b {
			b[j] = (rng.Float32()*2 - 1) * 0.1
		}
		arrays = append(arrays, w, b)
	}
	return arrays
}

// drawOrder lists p's arrays in the order oldMaterialize returns them.
func drawOrder(p *Parameters) [][]float32 {
	arrays := append([][]float32(nil), p.Embeddings...)
	for l, w := range p.Weights {
		arrays = append(arrays, w.Data, p.Biases[l])
	}
	return arrays
}

// TestMaterializeMatchesPerDrawLoop holds the block generator and the
// parallel fill to the per-draw loop: every embedding, weight and bias
// bit-identical, on one converter and on several.
func TestMaterializeMatchesPerDrawLoop(t *testing.T) {
	rmc2, err := DLRMRMC2(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		spec *Spec
		cap  int64
		seed int64
	}
	var cases []tc
	for _, s := range []*Spec{SmallProduction(), LargeProduction()} {
		for _, c := range []int64{1, 4096, 0} {
			cases = append(cases, tc{s, c, 1})
		}
	}
	cases = append(cases, tc{rmc2, 0, 1},
		tc{SmallProduction(), 1, skipSeedFirstBlock}, tc{SmallProduction(), 1, skipSeedLaterBlock},
		tc{LargeProduction(), 16, 5}, tc{LargeProduction(), 16, 7})
	for _, c := range cases {
		opts := MaterializeOptions{Seed: c.seed, MaxRowsPerTable: c.cap}
		want := oldMaterialize(c.spec, opts)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0), 5} {
			p, err := c.spec.materialize(opts, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range drawOrder(p) {
				if len(got) != len(want[i]) {
					t.Fatalf("%s cap %d: array %d has %d values, want %d", c.spec.Name, c.cap, i, len(got), len(want[i]))
				}
				for j := range got {
					if math.Float32bits(got[j]) != math.Float32bits(want[i][j]) {
						t.Errorf("%s cap %d seed %d, %d workers: array %d differs at %d", c.spec.Name, c.cap, c.seed, workers, i, j)
						break
					}
				}
			}
			p.Release()
		}
	}
}

// TestFillSegmentEdges covers what Materialize never passes: empty and
// one-value segments, and a stream that ends exactly on a block.
func TestFillSegmentEdges(t *testing.T) {
	for _, sizes := range [][]int{
		{0, 1, 0, 2, 0},
		{blockDraws + lagLong, 0, 3},
		{blockDraws + lagLong - 1, 1, blockDraws, 0},
		{70_000}, // seed 51 resamples inside it
	} {
		segs := make([]segment, len(sizes))
		for i, n := range sizes {
			segs[i] = segment{make([]float32, n), float32(i + 1)}
		}
		for _, seed := range []int64{1, skipSeedLaterBlock} {
			fill(seed, segs, 3)
			r := rand.New(rand.NewSource(seed))
			for i, s := range segs {
				for j, v := range s.dst {
					if want := (r.Float32()*2 - 1) * s.scale; math.Float32bits(v) != math.Float32bits(want) {
						t.Fatalf("sizes %v seed %d: segment %d value %d = %v, want %v", sizes, seed, i, j, v, want)
					}
				}
			}
		}
	}
}

// BenchmarkMaterialize times the benchmark's embed_lookup parameters:
// production-large at 262 144 rows a table, about 181 M values.
func BenchmarkMaterialize(b *testing.B) {
	s := LargeProduction()
	opts := MaterializeOptions{Seed: 1, MaxRowsPerTable: 262144}
	values := 0
	for i := 0; i < b.N; i++ {
		p, err := s.Materialize(opts)
		if err != nil {
			b.Fatal(err)
		}
		values = 0
		for _, e := range p.Embeddings {
			values += len(e)
		}
		for l, w := range p.Weights {
			values += len(w.Data) + len(p.Biases[l])
		}
		p.Release()
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(values), "ns/value")
}
