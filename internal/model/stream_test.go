package model

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"microrec/internal/fixedpoint"
	"microrec/internal/kernels"
	"microrec/internal/offheap"
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
		kernels.Extend(buf)
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

// drawOrder lists p's arrays in the order oldMaterialize returns them: the
// tables as the fill hands them to a sink, then the FC tower.
func drawOrder(t *testing.T, p *Parameters) [][]float32 {
	t.Helper()
	arrays, err := p.FloatTables()
	if err != nil {
		t.Fatal(err)
	}
	weights, biases := p.Layers()
	for l, w := range weights {
		arrays = append(arrays, w.Data, biases[l])
	}
	return arrays
}

// TestMaterializeMatchesPerDrawLoop holds the block generator and the
// parallel fill to the per-draw loop: every embedding, weight and bias
// bit-identical, on one converter and on several — through the stream's one
// pass and through a refill from its checkpoints.
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
			for pass, how := range []string{"one pass", "refill"} {
				got := drawOrder(t, p)
				if pass == 1 {
					got = got[:len(c.spec.Tables)] // the FC tower is not drawn again
				}
				for i, got := range got {
					if len(got) != len(want[i]) {
						t.Fatalf("%s cap %d: array %d has %d values, want %d", c.spec.Name, c.cap, i, len(got), len(want[i]))
					}
					for j := range got {
						if math.Float32bits(got[j]) != math.Float32bits(want[i][j]) {
							t.Errorf("%s cap %d seed %d, %d workers, %s: array %d differs at %d", c.spec.Name, c.cap, c.seed, workers, how, i, j)
							break
						}
					}
				}
			}
			p.Release()
		}
	}
}

// TestRowFromCheckpointsMatchesTables is the stream's addressability
// property: a row regenerated from its block's checkpoint equals the row of
// the float tables the one pass wrote, bit for bit — on random (table, row)
// pairs, and on the rows on both sides of every block edge, where a row may
// straddle two blocks. The seeds include both that resample a draw.
func TestRowFromCheckpointsMatchesTables(t *testing.T) {
	caps := []int64{1, 4096, 262144}
	if raceEnabled {
		caps = caps[:2] // 37 M draws a seed: nothing for the detector to find
	}
	spec := SmallProduction()
	for _, seed := range []int64{0, 1, 7, skipSeedFirstBlock, skipSeedLaterBlock} {
		for _, c := range caps {
			p, err := spec.Materialize(MaterializeOptions{Seed: seed, MaxRowsPerTable: c})
			if err != nil {
				t.Fatal(err)
			}
			tables, err := p.FloatTables() // the one pass
			if err != nil {
				t.Fatal(err)
			}
			type ref struct {
				table int
				row   int64
			}
			var refs []ref
			at := func(pos int) ref { // the row holding stream position pos
				ti := sort.Search(len(spec.Tables), func(i int) bool { return p.starts[i+1] > pos })
				return ref{ti, int64((pos - p.starts[ti]) / spec.Tables[ti].Dim)}
			}
			for _, edge := range p.cp.pos[1:] {
				refs = append(refs, at(edge-1), at(edge))
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				ti := rng.Intn(len(spec.Tables))
				refs = append(refs, ref{ti, rng.Int63n(spec.Tables[ti].Rows)})
			}
			check := func(how string, r ref, got []float32) {
				dim := int64(spec.Tables[r.table].Dim)
				row := r.row % p.ActualRows[r.table]
				want := tables[r.table][row*dim : (row+1)*dim]
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("seed %d cap %d, %s: table %d row %d differs at %d: %v, want %v", seed, c, how, r.table, r.row, j, got[j], want[j])
					}
				}
			}
			reads := make([]RowRead, len(refs))
			for i, r := range refs {
				got, err := p.Row(r.table, r.row)
				if err != nil {
					t.Fatal(err)
				}
				check("Row", r, got)
				reads[i] = RowRead{Table: r.table, Index: r.row, Dst: make([]float32, spec.Tables[r.table].Dim)}
			}
			if err := p.ReadRows(reads); err != nil {
				t.Fatal(err)
			}
			for i, r := range refs {
				check("ReadRows", r, reads[i].Dst)
			}
			p.Release()
		}
	}
}

// checkpointBytes is the memory p's stream checkpoints hold (zero before the
// stream has run and after Release).
func checkpointBytes(p *Parameters) (n int64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.cp != nil {
		for _, w := range p.cp.chunks {
			n += int64(len(w)) * 8
		}
	}
	return n
}

// TestReadAfterRelease pins what Release leaves: no rows, no fills, the FC
// tower intact.
func TestReadAfterRelease(t *testing.T) {
	p, err := SmallProduction().Materialize(MaterializeOptions{Seed: 1, MaxRowsPerTable: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Row(0, 0); err != nil {
		t.Fatal(err)
	}
	if checkpointBytes(p) == 0 {
		t.Error("no checkpoints after a read")
	}
	p.Release()
	p.Release()
	if checkpointBytes(p) != 0 {
		t.Error("checkpoints held after Release")
	}
	if _, err := p.Row(0, 0); err == nil {
		t.Error("Row after Release: want error")
	}
	if err := p.FillTables(func(int, int, []float32) {}); err == nil {
		t.Error("FillTables after Release: want error")
	}
	if w, _ := p.Layers(); len(w) == 0 || len(w[0].Data) == 0 {
		t.Error("FC tower gone after Release")
	}
	// Released before the stream ran: the FC tower still comes, and no
	// checkpoint is left behind.
	q, err := LargeProduction().Materialize(MaterializeOptions{Seed: 1, MaxRowsPerTable: 4096})
	if err != nil {
		t.Fatal(err)
	}
	q.Release()
	if w, _ := q.Layers(); len(w) == 0 || w[0].Data[0] == 0 {
		t.Error("no FC tower from parameters released before the stream ran")
	}
	if checkpointBytes(q) != 0 {
		t.Errorf("%d checkpoint bytes recorded after Release", checkpointBytes(q))
	}
}

// TestFillSegmentEdges covers what Materialize never passes: empty and
// one-value segments, and a stream that ends exactly on a block — converted
// on the generator alone, on the converters alone, and split between them
// at a segment boundary.
func TestFillSegmentEdges(t *testing.T) {
	for _, sizes := range [][]int{
		{0, 1, 0, 2, 0},
		{blockDraws + lagLong, 0, 3},
		{blockDraws + lagLong - 1, 1, blockDraws, 0},
		{70_000}, // seed 51 resamples inside it
	} {
		dsts := make([][]float32, len(sizes))
		segs := make([]segment, len(sizes))
		for i, n := range sizes {
			dst := make([]float32, n)
			dsts[i] = dst
			segs[i] = segment{n: n, scale: float32(i + 1), put: func(off int, vals []float32) { copy(dst[off:], vals) }}
		}
		for _, c := range []struct {
			seed   int64
			record int
		}{{1, 0}, {skipSeedLaterBlock, 0}, {1, len(sizes) - 1}, {skipSeedLaterBlock, len(sizes)}} {
			seed, record := c.seed, 0
			for _, n := range sizes[:c.record] {
				record += n
			}
			for i := range dsts {
				clear(dsts[i])
			}
			fill(seed, segs, 3, record)
			r := rand.New(rand.NewSource(seed))
			for i, dst := range dsts {
				for j, v := range dst {
					if want := (r.Float32()*2 - 1) * segs[i].scale; math.Float32bits(v) != math.Float32bits(want) {
						t.Fatalf("sizes %v seed %d: segment %d value %d = %v, want %v", sizes, seed, i, j, v, want)
					}
				}
			}
		}
	}
}

// BenchmarkMaterialize times the benchmark's embed_lookup parameters:
// production-large at 262 144 rows a table, about 181 M values, filled as a
// Fixed16 engine fills them — the one pass, then a refill from the
// checkpoints, as an engine of the other width would.
func BenchmarkMaterialize(b *testing.B) {
	s := LargeProduction()
	opts := MaterializeOptions{Seed: 1, MaxRowsPerTable: 262144}
	q := kernels.NewQuantizer(fixedpoint.Fixed16)
	var pass, refill time.Duration
	values := 0
	for i := 0; i < b.N; i++ {
		p, err := s.Materialize(opts)
		if err != nil {
			b.Fatal(err)
		}
		tables := make([][]int16, len(s.Tables))
		for t := range tables {
			tables[t] = offheap.Make[int16](int(p.ActualRows[t]) * s.Tables[t].Dim)
		}
		sink := func(t, off int, vals []float32) { kernels.QuantizeRow(&q, vals, tables[t][off:]) }
		t0 := time.Now()
		if err := p.FillTables(sink); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if err := p.FillTables(sink); err != nil {
			b.Fatal(err)
		}
		pass, refill = pass+t1.Sub(t0), refill+time.Since(t1)
		values = 0
		for t := range tables {
			values += len(tables[t])
			offheap.Free(tables[t])
		}
		p.Release()
	}
	b.ReportMetric(pass.Seconds()/float64(b.N), "pass-s/op")
	b.ReportMetric(refill.Seconds()/float64(b.N), "refill-s/op")
	b.ReportMetric(float64(pass.Nanoseconds())/float64(b.N)/float64(values), "ns/value")
}

// BenchmarkRow times regenerating one row from its checkpoint, at random
// positions of the embed_lookup parameters.
func BenchmarkRow(b *testing.B) {
	s := LargeProduction()
	p, err := s.Materialize(MaterializeOptions{Seed: 1, MaxRowsPerTable: 262144})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Release()
	p.Layers() // run the stream outside the timed loop
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := rng.Intn(len(s.Tables))
		if _, err := p.Row(ti, rng.Int63n(s.Tables[ti].Rows)); err != nil {
			b.Fatal(err)
		}
	}
}
