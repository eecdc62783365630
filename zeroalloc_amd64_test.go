//go:build amd64 && !noasm

package microrec_test

import (
	"microrec/internal/fixedpoint"
	"microrec/internal/kernels"
)

// The assembly kernels compile on every amd64 !noasm build, but which of
// them the host can run — and which one dispatch picked — depends on its
// CPU. So the rows come from the kernels package's implementation tables,
// one per registered implementation, each driven by name (not through the
// dispatch variable) and skipped, naming the missing feature, where the host
// cannot run it: a function is never listed as covered by a run that
// executed something else.
func init() {
	k16, k32 := newKernelFixture[int16](fixedpoint.Fixed16), newKernelFixture[int32](fixedpoint.Fixed32)
	zeroallocArch = append(zeroallocArch, implCases("gemm16", kernels.Gemm16Impls, map[string]string{
		"avx2-vpmaddwd16": "internal/kernels.gemm16AVX2",
		"avx512-vnni16":   "internal/kernels.gemm16VNNI",
	}, func(gemm kernels.GemmFunc[int16]) func() {
		return func() { gemm(k16.x, k16.acc, k16.b, k16.stride, &k16.w, k16.f) }
	})...)
	zeroallocArch = append(zeroallocArch, implCases("gemm32", kernels.Gemm32Impls, map[string]string{
		"avx2-fma32":   "internal/kernels.gemm32AVX2",
		"avx512-fma32": "internal/kernels.gemm32AVX512",
	}, func(gemm kernels.GemmFunc[int32]) func() {
		return func() { gemm(k32.x, k32.acc, k32.b, k32.stride, &k32.w, k32.f) }
	})...)

	e16, e32 := fixedpoint.Fixed16.Epilogue(), fixedpoint.Fixed32.Epilogue()
	zeroallocArch = append(zeroallocArch, implCases("finish16", kernels.Finish16Impls, map[string]string{
		"avx512-epilogue": "internal/kernels.finishRow16AVX512",
	}, func(finish kernels.FinishFunc[int16]) func() {
		return func() { finish(&e16, k16.acc[:k16.w.Out], k16.acc[:k16.w.Out], true, k16.x) }
	})...)
	zeroallocArch = append(zeroallocArch, implCases("finish32", kernels.Finish32Impls, map[string]string{
		"avx512-epilogue": "internal/kernels.finishRow32AVX512",
	}, func(finish kernels.FinishFunc[int32]) func() {
		return func() { finish(&e32, k32.acc[:k32.w.Out], k32.acc[:k32.w.Out], true, k32.x) }
	})...)
}

// implCases builds one row per optimized implementation in impls (the
// reference, entry 0, has its own portable row). covers maps an
// implementation's name to the annotated function behind it; a registered
// implementation missing from the map yields a row that covers nothing,
// which TestNoallocAnnotationTableComplete rejects.
func implCases[F any](contract string, impls []kernels.Impl[F], covers map[string]string, run func(F) func()) []allocCase {
	var cases []allocCase
	for _, impl := range impls[1:] {
		c := allocCase{name: "kernels/" + contract + "/" + impl.Name, run: run(impl.Fn)}
		if fn, ok := covers[impl.Name]; ok {
			c.covers = []string{fn}
		}
		if impl.Missing != "" {
			c.skip = "host lacks " + impl.Missing
		}
		cases = append(cases, c)
	}
	return cases
}
