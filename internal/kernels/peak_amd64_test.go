//go:build amd64 && !noasm

package kernels

import "testing"

// BenchmarkPeak measures the compute ceilings of the GEMM kernels' inner
// steps on this host, in the unit BenchmarkGEMMKernel reports: a 32x32->64
// VPMULDQ+VPADDQ pair (8 MACs a zmm), the 32-bit FMA kernels' VFMADD231PD
// (8) and the 16-bit VNNI tile's VPDPWSSD (32). A kernel reads as a fraction
// of its instruction's peak from one run.
func BenchmarkPeak(b *testing.B) {
	avx512 := cpuFeatures().avx512vnni
	for _, p := range []struct {
		name string
		run  func(n int)
		macs int // per iteration
	}{
		{"avx512-vpmuldq+vpaddq", peakVPMULDQ, 8 * 8},
		{"avx512-vfmadd231pd", peakFMA, 12 * 8},
		{"avx512-vpdpwssd", peakVPDPWSSD, 12 * 32},
	} {
		b.Run(p.name, func(b *testing.B) {
			if !avx512 {
				b.Skip("host lacks AVX512F+BW+VL+VNNI with OS-enabled opmask and zmm state")
			}
			const iters = 1 << 14
			for n := 0; n < b.N; n++ {
				p.run(iters)
			}
			b.ReportMetric(float64(p.macs)*iters*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MACs/ns")
		})
	}
}
