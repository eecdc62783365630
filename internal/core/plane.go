package core

import (
	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/hotcache"
	"microrec/internal/kernels"
	"microrec/internal/model"
)

// This file is the width-native half of the engine: everything that touches
// an activation plane or an FC weight is generic over the element type the
// fixed-point format stores — int16 for a 16-bit format, int32 for a 32-bit
// one — and lives on fixedPath[T]. Build instantiates it once, by the
// format's Bits, behind the datapath interface; the rest of the engine (and
// everything above it) is width-agnostic and holds planes only as opaque
// BatchScratch values.

// datapath is the seam between the width-agnostic engine and its
// width-native plane code. Its two implementations are fixedPath[int16] and
// fixedPath[int32].
type datapath interface {
	ensure(s *BatchScratch, b int)
	features(s *BatchScratch) Features
	gatherTables(plan *gatherPlan, tables []int, queries []embedding.Query, s *BatchScratch, cache *hotcache.Live)
	zeroDenseTail(b int, s *BatchScratch)
	mergePartial(b int, spans []ColSpan, src, dst *BatchScratch)
	dense(b int, s *BatchScratch)
	tail(b int, s *BatchScratch, dst []float32)
}

// fixedPath is the datapath at one element width: the quantized FC tower
// packed for that width's GEMM kernel, and the hoisted constants of the two
// per-element conversions (float → raw in the gather, accumulator → raw
// after each GEMM).
type fixedPath[T kernels.Elem] struct {
	format fixedpoint.Format
	// stride is the row stride of every plane: the widest activation row
	// (feature length or any layer output) rounded up to the vector width,
	// so every layer's padded input fits inside a row.
	stride     int
	featureLen int
	denseOff   int // where the dense tail starts in a feature row

	quant  kernels.Quantizer
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

// newFixedPath quantizes and packs the FC tower for element type T.
func newFixedPath[T kernels.Elem](
	f fixedpoint.Format, spec *model.Spec, params *model.Parameters,
	gemm kernels.GemmFunc[T], finishRow kernels.FinishFunc[T],
	plane func(*BatchScratch) *[]T,
) *fixedPath[T] {
	d := &fixedPath[T]{
		format:     f,
		featureLen: spec.FeatureLen(),
		denseOff:   spec.FeatureLen() - spec.DenseDim,
		quant:      kernels.NewQuantizer(f),
		finish:     f.Epilogue(),
		gemm:       gemm,
		finishRow:  finishRow,
		plane:      plane,
	}
	width := d.featureLen
	for l, dim := range spec.LayerDims() {
		in, out := dim[0], dim[1]
		if out > width {
			width = out
		}
		// Source weights are in x out row-major; Pack stores them
		// transposed so output j's weights are contiguous.
		w := params.Weights[l].Data
		d.layers = append(d.layers, kernels.Pack(in, out, func(i, j int) T {
			return T(f.Quantize(float64(w[i*out+j])))
		}))
		bias := make([]int64, len(params.Biases[l]))
		for i, v := range params.Biases[l] {
			bias[i] = f.Quantize(float64(v))
		}
		d.biases = append(d.biases, bias)
	}
	d.stride = kernels.RoundUp(width)
	return d
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

// Features is a read-only view of a gathered plane's quantized feature rows,
// at whichever width the engine stores them.
type Features struct {
	x16    []int16
	x32    []int32
	stride int
}

// At returns feature k of query q as a raw value of the engine's format.
func (f Features) At(q, k int) int64 {
	if f.x16 != nil {
		return int64(f.x16[q*f.stride+k])
	}
	return int64(f.x32[q*f.stride+k])
}

func (d *fixedPath[T]) features(s *BatchScratch) Features {
	f := Features{stride: d.stride}
	switch x := any(*d.plane(s)).(type) {
	case []int16:
		f.x16 = x
	case []int32:
		f.x32 = x
	}
	return f
}

// gatherTables runs the table-major gather for one shard's physical tables:
// for each table (and lookup round) it walks the whole batch, computes the
// physical row, optionally records the access against the given live hot-row
// cache, and quantizes the payload straight into each query's feature row at
// the plane's width (one direct call over constants hoisted at Build, not a
// per-element Quantize). The walk is prefetch-ahead: while query q's row is
// being quantized, query q+1's row — already index-resolved one step early —
// is hinted toward the cache non-temporally, so the random-access row fetch
// overlaps the copy instead of stalling it (the paper's data-movement thesis
// applied to a CPU gather). Distinct tables write disjoint feature columns,
// so shards never overlap. cache is a parameter (not always the engine's)
// because the cluster tier's partial gathers account against per-shard
// caches.
//
//microrec:noalloc
func (d *fixedPath[T]) gatherTables(plan *gatherPlan, tables []int, queries []embedding.Query, s *BatchScratch, cache *hotcache.Live) {
	x := *d.plane(s)
	w := d.stride
	// Cold-tier faults accumulate in a local and fold into the scratch once
	// at the end: shards of one batch share the scratch concurrently, and one
	// atomic add per shard beats one per row.
	var cold int64
	for _, ti := range tables {
		gt := &plan.tables[ti]
		if gt.mat != nil {
			dim := gt.dim
			for r := 0; r < gt.lookups; r++ {
				row := gt.matRow(queries[0], r)
				for qi := range queries {
					var next int64
					if qi+1 < len(queries) {
						next = gt.matRow(queries[qi+1], r)
						gt.prefetchMatRow(next)
					}
					if cache != nil {
						cache.Lookup(gt.cacheID, row, gt.vecBytes)
					}
					var payload []float32
					if gt.tier != nil {
						var wasCold bool
						payload, wasCold = gt.tier.RowTagged(row)
						if wasCold {
							cold++
						}
					} else {
						payload = gt.mat[row*dim : row*dim+dim]
					}
					out := x[qi*w : qi*w+d.featureLen]
					seg := 0
					for si := range gt.srcs {
						src := &gt.srcs[si]
						off := src.featOff + r*src.dim
						kernels.QuantizeRow(&d.quant, payload[seg:seg+src.dim], out[off:off+src.dim])
						seg += src.dim
					}
					row = next
				}
			}
			continue
		}
		for si := range gt.srcs {
			src := &gt.srcs[si]
			dim := src.dim
			d64 := int64(dim)
			for r := 0; r < src.lookups; r++ {
				off := src.featOff + r*dim
				for qi, q := range queries {
					mrow := q[src.srcID][r] % src.actualRows
					if qi+1 < len(queries) {
						next := queries[qi+1][src.srcID][r] % src.actualRows
						src.prefetchRow(next, d64)
					}
					if cache != nil {
						cache.Lookup(src.cacheID, mrow, src.vecBytes)
					}
					var vec []float32
					if src.tier != nil {
						var wasCold bool
						vec, wasCold = src.tier.RowTagged(mrow)
						if wasCold {
							cold++
						}
					} else {
						vec = src.data[mrow*d64 : mrow*d64+d64]
					}
					kernels.QuantizeRow(&d.quant, vec, x[qi*w+off:qi*w+off+dim])
				}
			}
		}
	}
	if cold != 0 {
		s.coldFaults.Add(cold)
	}
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
