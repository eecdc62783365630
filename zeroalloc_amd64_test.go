//go:build amd64 && !noasm

package microrec_test

import "microrec/internal/kernels"

// The AVX2 GEMMs compile on every amd64 !noasm build; on hosts with AVX2
// they are also the kernels.Gemm16/Gemm32 dispatch targets, so driving the
// dispatch pins each width's assembly path where it is live and the
// reference fallback elsewhere.
func init() {
	k16, k32 := newKernelFixture[int16](), newKernelFixture[int32]()
	zeroallocArch = append(zeroallocArch, allocCase{
		name:   "kernels/gemm16-dispatch",
		covers: []string{"internal/kernels.gemm16AVX2"},
		run:    func() { kernels.Gemm16(k16.x, k16.acc, k16.b, k16.stride, &k16.w) },
	}, allocCase{
		name:   "kernels/gemm32-dispatch",
		covers: []string{"internal/kernels.gemm32AVX2"},
		run:    func() { kernels.Gemm32(k32.x, k32.acc, k32.b, k32.stride, &k32.w) },
	})
}
