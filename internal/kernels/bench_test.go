package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"microrec/internal/fixedpoint"
)

// benchGemm times every registered implementation's GEMM walk of one
// element type — each under its own name, so the paths are comparable on one
// host; the ones it cannot run are skipped — on the production-small layer
// shapes at the batch sizes the serving tier really runs: one query, a ragged light-load batch, and a
// full batch. MACs/ns counts logical multiply-accumulates (padding is
// overhead, not work), so the two widths and all paths are directly
// comparable.
func benchGemm[T Elem](b *testing.B, k gemmKernel[T]) {
	for _, s := range []struct{ in, out int }{
		{352, 1024}, // production-small layer 1
		{1024, 512}, // layer 2
		{512, 256},  // layer 3
	} {
		rng := rand.New(rand.NewSource(1))
		// Raws at the production models' magnitudes: a layer's weights are
		// uniform in ±1/sqrt(in). At 16 bits |w| < 64 keeps the 16-bit
		// kernels on their one-widening cadence, as on every real layer; at
		// 32 bits the FMA kernels get the chunk length the real layers get.
		maxAbs := 64
		if k.name == "int32" {
			maxAbs = int(fixedpoint.Fixed32.Scale() / math.Sqrt(float64(s.in)))
		}
		w := Pack(s.in, s.out, func(i, j int) T { return T(rng.Intn(2*maxAbs) - maxAbs) })
		stride := max(w.InP, w.OutP)
		for _, batch := range []int{1, 6, 64} {
			X := make([]T, batch*stride)
			Acc := make([]int64, batch*stride)
			F := make([]float64, batch*stride)
			for i := range X {
				X[i] = T(rng.Intn(1<<14) - 1<<13)
			}
			macs := float64(batch) * float64(s.in) * float64(s.out)
			for _, impl := range *k.impls {
				b.Run(fmt.Sprintf("%s/%s/b%d_%dx%d", k.name, impl.Name, batch, s.in, s.out), func(b *testing.B) {
					if impl.Missing != "" {
						b.Skipf("host lacks %s", impl.Missing)
					}
					for n := 0; n < b.N; n++ {
						impl.gemm(X, Acc, batch, stride, &w, F)
					}
					b.ReportMetric(macs*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MACs/ns")
				})
			}
		}
	}
}

// BenchmarkGEMMKernel measures both widths' kernels independently of the
// serving stack. MACs/ns is the figure to watch; the paper's per-core
// throughput argument lives or dies here.
func BenchmarkGEMMKernel(b *testing.B) {
	benchGemm(b, kernel16)
	benchGemm(b, kernel32)
}

// benchFinish times every registered implementation's row epilogue of one
// width at the production-small layer widths (the AVX2 entries share the
// reference's); ns/elem is the figure to watch (the dense stage finishes
// 1792 elements per query).
func benchFinish[T Elem](b *testing.B, name string, f fixedpoint.Format, impls []Impl[T]) {
	rng := rand.New(rand.NewSource(3))
	e := f.Epilogue()
	for _, n := range []int{1024, 512, 256} {
		acc := make([]int64, n)
		bias := make([]int64, n)
		dst := make([]T, n)
		for i := range acc {
			// Accumulators across the format's whole range: the sign, which
			// the reference's ReLU clamp branches on, is a coin flip.
			acc[i] = (rng.Int63n(2*e.Max) - e.Max) << e.Shift
			bias[i] = rng.Int63n(e.Max>>3) - e.Max>>4
		}
		for _, impl := range impls {
			b.Run(fmt.Sprintf("%s/%s/n%d", name, impl.Name, n), func(b *testing.B) {
				if impl.Missing != "" {
					b.Skipf("host lacks %s", impl.Missing)
				}
				for i := 0; i < b.N; i++ {
					impl.finish(&e, acc, bias, true, dst)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}

// BenchmarkFinishRow measures the row epilogue at both storage widths.
func BenchmarkFinishRow(b *testing.B) {
	benchFinish(b, "int16", fixedpoint.Fixed16, Layer16Impls)
	benchFinish(b, "int32", fixedpoint.Fixed32, Layer32Impls)
}

// BenchmarkQuantizeRow measures the row-quantize against the reference at
// the gather path's working sizes (one embedding vector, one materialised
// product row).
func BenchmarkQuantizeRow(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	f := fixedpoint.Fixed16
	q := NewQuantizer(f)
	for _, n := range []int{4, 8, 32, 352} {
		src := make([]float32, n)
		dst := make([]int16, n)
		for i := range src {
			src[i] = rng.Float32()*16 - 8
		}
		b.Run(fmt.Sprintf("ref/n%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 4))
			for i := 0; i < b.N; i++ {
				QuantizeRowRef(f, src, dst)
			}
		})
		b.Run(fmt.Sprintf("active/%s/n%d", Features(), n), func(b *testing.B) {
			b.SetBytes(int64(n * 4))
			for i := 0; i < b.N; i++ {
				QuantizeRow(&q, src, dst)
			}
		})
	}
}
