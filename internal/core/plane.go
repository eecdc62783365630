package core

import (
	"cmp"
	"io"
	"sync"
	"unsafe"

	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/kernels"
	"microrec/internal/model"
	"microrec/internal/offheap"
	"microrec/internal/tieredstore"
)

// This file is the width-native half of the engine: everything that touches
// an embedding table, an activation plane or an FC weight is generic over
// the element type the fixed-point format stores — int16 for a 16-bit
// format, int32 for a 32-bit one — and lives on fixedPath[T]. The embedding
// tables are stored at that width too, each value quantized once when the
// tables are filled, so the gather copies rows and converts nothing. Build instantiates it once, by the
// format's Bits, behind the datapath interface; the rest of the engine (and
// everything above it) is width-agnostic and holds planes only as opaque
// BatchScratch values.

// datapath is the seam between the width-agnostic engine and its
// width-native plane code. Its two implementations are fixedPath[int16] and
// fixedPath[int32].
type datapath interface {
	ensure(s *BatchScratch, b int)
	gatherTables(plan *gatherPlan, tables []int, queries []embedding.Query, s *BatchScratch) (coldFaults int64)
	zeroDenseTail(b int, s *BatchScratch)
	mergePartial(b int, spans []ColSpan, src, dst *BatchScratch)
	dense(b int, s *BatchScratch)
	tail(b int, s *BatchScratch, dst []float32)
	release()
}

// fixedPath is the datapath at one element width: the embedding tables and
// the quantized FC tower at that width, and the hoisted constants of the
// accumulator → raw conversion after each GEMM.
type fixedPath[T kernels.Elem] struct {
	format fixedpoint.Format
	// stride is the row stride of every plane: the widest activation row
	// (feature length or any layer output) rounded up to the vector width,
	// so every layer's padded input fits inside a row.
	stride     int
	featureLen int
	denseOff   int // where the dense tail starts in a feature row

	// tables[src] is source table src's rows, row-major, quantized
	// (offheap.Make; nil for a tiered engine). tier[src] is the same rows in
	// the tiered store instead (nil for an all-DRAM engine).
	tables [][]T
	tier   []*tieredstore.Stream

	finish fixedpoint.Epilogue
	layers []kernels.Weights[T] // transposed, zero-padded (see kernels.Pack)
	biases [][]int64            // raw, added to finished accumulators

	// gemm and finishRow are this width's kernels (kernels.Gemm16 and
	// kernels.FinishRow16, or the 32-bit pair) and plane this width's
	// activation buffer inside a scratch; all are bound at Build, so no hot
	// loop dispatches on the width.
	gemm      kernels.GemmFunc[T]
	finishRow kernels.FinishFunc[T]
	plane     func(*BatchScratch) *[]T
}

// newFixedPath stores the embedding tables at element type T — in DRAM, or,
// when tier is set, in a tiered store's cold file (returned; source table t
// is stream t) — and then quantizes and packs the FC tower. The
// tables come first: if nothing has run the parameters' stream yet, filling
// them is its one pass, which also materialises the FC tower.
func newFixedPath[T kernels.Elem](
	f fixedpoint.Format, spec *model.Spec, params *model.Parameters, tier *tieredstore.Config,
	gemm kernels.GemmFunc[T], finishRow kernels.FinishFunc[T],
	plane func(*BatchScratch) *[]T,
) (*fixedPath[T], *tieredstore.Store, error) {
	d := &fixedPath[T]{
		format:     f,
		featureLen: spec.FeatureLen(),
		denseOff:   spec.FeatureLen() - spec.DenseDim,
		finish:     f.Epilogue(),
		gemm:       gemm,
		finishRow:  finishRow,
		plane:      plane,
	}
	var store *tieredstore.Store
	var err error
	if tier == nil {
		err = d.fillTables(params)
	} else {
		store, err = d.openTier(*tier, params)
	}
	if err != nil {
		return nil, nil, err
	}
	width := d.featureLen
	weights, biases := params.Layers()
	for l, dim := range spec.LayerDims() {
		in, out := dim[0], dim[1]
		if out > width {
			width = out
		}
		// Source weights are in x out row-major; Pack stores them
		// transposed so output j's weights are contiguous.
		w := weights[l].Data
		d.layers = append(d.layers, kernels.Pack(in, out, func(i, j int) T {
			return T(f.Quantize(float64(w[i*out+j])))
		}))
		bias := make([]int64, len(biases[l]))
		for i, v := range biases[l] {
			bias[i] = f.Quantize(float64(v))
		}
		d.biases = append(d.biases, bias)
	}
	d.stride = kernels.RoundUp(width)
	return d, store, nil
}

// fillTables quantizes every embedding table into DRAM at width T, each
// value exactly f.Quantize of its float (kernels.QuantizeRow).
func (d *fixedPath[T]) fillTables(params *model.Parameters) error {
	spec := params.Spec
	d.tables = make([][]T, len(spec.Tables))
	for t, ts := range spec.Tables {
		d.tables[t] = offheap.Make[T](int(params.ActualRows[t]) * ts.Dim)
	}
	q := kernels.NewQuantizer(d.format)
	err := params.FillTables(func(t, off int, vals []float32) {
		kernels.QuantizeRow(&q, vals, d.tables[t][off:])
	})
	if err != nil {
		d.release()
	}
	return err
}

// openTier writes every embedding table, quantized to width T, into the
// tiered store's cold file — source table t as stream t —
// straight from the parameters' fill, so no DRAM copy of a table exists at
// any point.
func (d *fixedPath[T]) openTier(cfg tieredstore.Config, params *model.Parameters) (*tieredstore.Store, error) {
	spec := params.Spec
	specs := make([]tieredstore.StreamSpec, len(spec.Tables))
	for t, ts := range spec.Tables {
		specs[t] = tieredstore.StreamSpec{ID: t, Rows: params.ActualRows[t], Dim: ts.Dim}
	}
	var zero T
	size := int64(unsafe.Sizeof(zero))
	q := kernels.NewQuantizer(d.format)
	store, err := tieredstore.Open(cfg, int(size), specs, func(f io.WriterAt, offsets []int64) error {
		var (
			mu    sync.Mutex
			first error
		)
		bufs := sync.Pool{New: func() any { return new([]T) }}
		err := params.FillTables(func(t, off int, vals []float32) {
			buf := bufs.Get().(*[]T)
			if cap(*buf) < len(vals) {
				*buf = make([]T, len(vals))
			}
			raw := (*buf)[:len(vals)]
			kernels.QuantizeRow(&q, vals, raw)
			_, err := f.WriteAt(asBytes(raw), offsets[t]+int64(off)*size)
			bufs.Put(buf)
			if err != nil {
				mu.Lock()
				first = cmp.Or(first, err)
				mu.Unlock()
			}
		})
		return cmp.Or(err, first)
	})
	if err != nil {
		return nil, err
	}
	d.tier = make([]*tieredstore.Stream, store.Streams())
	for id := range d.tier {
		d.tier[id] = store.Stream(id)
	}
	return store, nil
}

// release hands the DRAM tables back (see offheap). The tiered store, which
// the engine owns, is closed by the engine.
func (d *fixedPath[T]) release() {
	for t, tab := range d.tables {
		offheap.Free(tab)
		d.tables[t] = nil
	}
}

// ensure sizes the scratch's buffers for b rows of this engine's stride.
// Each buffer is checked on its own: a scratch may arrive from an engine of
// another width (whose activation plane is a different field) or of another
// stride, and a capacity that suited that engine says nothing about this one.
func (d *fixedPath[T]) ensure(s *BatchScratch, b int) {
	n := b * d.stride
	x := d.plane(s)
	if cap(*x) < n {
		*x = make([]T, n)
	}
	*x = (*x)[:n]
	if cap(s.acc) < n {
		s.acc = make([]int64, n)
	}
	s.acc = s.acc[:n]
}

// hint starts the fetch of the given rows of a block: one block hint over
// the DRAM table or, row by row, over whichever copy the tiered store would
// serve.
//
//microrec:noalloc
func (d *fixedPath[T]) hint(blk *gatherBlock, rows []int64) {
	if d.tier == nil {
		kernels.PrefetchRows(d.tables[blk.srcID], blk.dim, rows)
		return
	}
	st := d.tier[blk.srcID]
	for _, row := range rows {
		st.PrefetchRow(row)
	}
}

// hintWindow resolves the row numbers of the next len(rows) lookups of s
// from the cursor (fewer at the end of the sequence) into rows, hints each
// block's run of them, and returns how many there were.
//
//microrec:noalloc
func (d *fixedPath[T]) hintWindow(s *gatherSeq, c *gatherCursor, rows []int64) int {
	n := 0
	for n < len(rows) && c.ti < len(s.tables) {
		blk, lo, hi := s.next(c, len(rows)-n)
		run := rows[n : n+hi-lo]
		blk.resolve(s.queries[lo:hi], run)
		d.hint(blk, run)
		n += hi - lo
	}
	return n
}

// gatherTables gathers the given tables into the plane and returns
// how many of the rows it read the tiered store served from the cold file.
// The tables' lookups form one sequence — each table's blocks in order, each
// block across the whole batch — and the loop takes it gatherWindow rows at a
// time, in two passes. Pass 1 resolves the window's row numbers into a vector
// on the stack and hints every row's cache lines, a block's run with one
// call. Pass 2 walks the same window again and, per row, reads the row —
// from the DRAM table, or through the tiered store, which records the read
// in its frequency window — and moves it, already at the plane's width,
// into the query's feature row (moveRows: a block's run of DRAM rows in one
// call, a tiered row on its own). By the time pass 2 reads
// a row its fetch has been in flight, together with the rest of the window's,
// for the whole of pass 1: the loop waits for memory once per window, not
// once per row (gather.go's header has the arithmetic). A window ends where
// W rows end, not where a block does, so a large batch cuts a block into
// several windows and a small one packs several blocks — at batch 1 a whole
// item's lookups — into one.
//
// Pass 2 visits lookups in exactly the sequence's order, so on a tiered
// engine the store's frequency window (which records every read), its read
// counters and the cold-fault count are those of a plain serial walk.
//
//microrec:noalloc
func (d *fixedPath[T]) gatherTables(plan *gatherPlan, tables []int, queries []embedding.Query, s *BatchScratch) (coldFaults int64) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	x := asBytes(*d.plane(s))
	w := d.stride * size
	seq := gatherSeq{plan: plan, tables: tables, queries: queries}
	var ahead, cur gatherCursor
	var rows [gatherWindow]int64
	var first [1]int64 // a tiered row arrives on its own: row 0 of a one-row source
	for n := d.hintWindow(&seq, &ahead, rows[:]); n > 0; n = d.hintWindow(&seq, &ahead, rows[:]) {
		for k := 0; k < n; {
			blk, lo, hi := seq.next(&cur, n-k)
			vb, off := blk.vecBytes, blk.off*size
			if d.tier == nil {
				moveRows(x[lo*w+off:], w, asBytes(d.tables[blk.srcID]), rows[k:k+hi-lo], vb)
				k += hi - lo
				continue
			}
			st := d.tier[blk.srcID]
			for qi := lo; qi < hi; qi++ {
				p, wasCold := tieredstore.RowTagged[T](st, rows[k])
				k++
				if wasCold {
					coldFaults++
				}
				moveRows(x[qi*w+off:], w, asBytes(p), first[:], vb)
			}
		}
	}
	return coldFaults
}

//microrec:noalloc
func (d *fixedPath[T]) zeroDenseTail(b int, s *BatchScratch) {
	x := *d.plane(s)
	for qi := 0; qi < b; qi++ {
		clear(x[qi*d.stride+d.denseOff : qi*d.stride+d.featureLen])
	}
}

func (d *fixedPath[T]) mergePartial(b int, spans []ColSpan, src, dst *BatchScratch) {
	from, to := *d.plane(src), *d.plane(dst)
	for qi := 0; qi < b; qi++ {
		base := qi * d.stride
		for _, sp := range spans {
			copy(to[base+sp.Off:base+sp.Off+sp.Len], from[base+sp.Off:base+sp.Off+sp.Len])
		}
	}
}

// layer runs FC layer l over the plane's first b rows in place: the GEMM
// reads the activation plane and leaves exact sums in the accumulator plane;
// only then is each row finished (rescale, saturate, bias, optional ReLU)
// back over the activations it was computed from. The plane's columns past
// the layer's output keep stale values, which the next layer's zero-padded
// weights ignore.
//
//microrec:noalloc
func (d *fixedPath[T]) layer(l, b int, s *BatchScratch, relu bool) {
	x := *d.plane(s)
	w := &d.layers[l]
	d.gemm(x, s.acc, b, d.stride, w)
	for qi := 0; qi < b; qi++ {
		row := qi * d.stride
		d.finishRow(&d.finish, s.acc[row:row+w.Out], d.biases[l], relu, x[row:row+w.Out])
	}
}

//microrec:noalloc
func (d *fixedPath[T]) dense(b int, s *BatchScratch) {
	for l := 0; l < len(d.layers)-1; l++ {
		d.layer(l, b, s, true)
	}
}

//microrec:noalloc
func (d *fixedPath[T]) tail(b int, s *BatchScratch, dst []float32) {
	d.layer(len(d.layers)-1, b, s, false)
	x := *d.plane(s)
	f := d.format
	for qi := 0; qi < b; qi++ {
		dst[qi] = float32(f.Dequantize(f.Sigmoid(int64(x[qi*d.stride]))))
	}
}
