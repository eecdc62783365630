package kernels_test

import (
	"testing"

	"microrec/internal/fixedpoint"
	"microrec/internal/kernels"
	"microrec/internal/model"
)

// TestProductionGemmNoFallback packs every FC layer of the seed-1 production
// models at both widths, as the engine does, and requires each to reach the
// optimized GEMM walks rather than their reference fallback: a 16-bit layer
// needs a widening cadence (madd >= 1), a 32-bit one an exact chunk of at
// least four steps (fma >= 4), because the AVX2 form runs chunks of fma/4
// and would send an AVX2 host to the reference below that. A layer's
// weights are uniform in ±1/sqrt(in), so L ≈ sqrt(in)/16 whatever the seed;
// production-small's hidden layers read 300 / 512 / 362.
func TestProductionGemmNoFallback(t *testing.T) {
	for _, spec := range []*model.Spec{model.SmallProduction(), model.LargeProduction()} {
		params, err := spec.Materialize(model.MaterializeOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		weights, _ := params.Layers()
		for l, dim := range spec.LayerDims() {
			in, out := dim[0], dim[1]
			m := weights[l].Data
			raw := func(f fixedpoint.Format, i, j int) int64 { return f.Quantize(float64(m[i*out+j])) }
			w16 := kernels.Pack(in, out, func(i, j int) int16 { return int16(raw(fixedpoint.Fixed16, i, j)) })
			w32 := kernels.Pack(in, out, func(i, j int) int32 { return int32(raw(fixedpoint.Fixed32, i, j)) })
			madd, chunk := kernels.MaddCadence(&w16), kernels.FMAChunk(&w32)
			t.Logf("%s layer %d (%dx%d): K = %d, L = %d", spec.Name, l, in, out, madd, chunk)
			if madd < 1 {
				t.Errorf("%s layer %d (%dx%d): no 16-bit widening cadence", spec.Name, l, in, out)
			}
			if chunk < 4 {
				t.Errorf("%s layer %d (%dx%d): FMA chunk %d, below the AVX2 form's four", spec.Name, l, in, out, chunk)
			}
		}
		params.Release()
	}
}
