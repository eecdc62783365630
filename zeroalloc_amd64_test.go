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
	zeroallocArch = append(zeroallocArch, implCases("layer16", kernels.Layer16Impls, map[string][]string{
		"avx2-vpmaddwd16": {"internal/kernels.gemm16AVX2"},
		"avx512-vnni16":   {"internal/kernels.gemm16VNNI", "internal/kernels.finishRow16AVX512"},
	}, k16.layer)...)
	zeroallocArch = append(zeroallocArch, implCases("layer32", kernels.Layer32Impls, map[string][]string{
		"avx2-fma32":   {"internal/kernels.gemm32AVX2"},
		"avx512-fma32": {"internal/kernels.gemm32AVX512", "internal/kernels.finishRow32AVX512"},
	}, k32.layer)...)
}

// implCases builds one row per optimized implementation in impls (the
// reference, entry 0, has its own portable row), each running the fixture's
// layer through it. covers maps an implementation's name to the annotated
// functions behind it; a registered implementation missing from the map
// yields a row that covers nothing, which TestNoallocAnnotationTableComplete
// rejects.
func implCases[T kernels.Elem](contract string, impls []kernels.Impl[T], covers map[string][]string, layer func(kernels.LayerFunc[T])) []allocCase {
	var cases []allocCase
	for i := range impls[1:] {
		impl := &impls[1+i]
		fc := kernels.LayerFunc[T](impl.Run) // bound once: a method value allocates
		c := allocCase{name: "kernels/" + contract + "/" + impl.Name, run: func() { layer(fc) }, covers: covers[impl.Name]}
		if impl.Missing != "" {
			c.skip = "host lacks " + impl.Missing
		}
		cases = append(cases, c)
	}
	return cases
}
