package kernels_test

import (
	"testing"

	"microrec/internal/fixedpoint"
	"microrec/internal/kernels"
	"microrec/internal/model"
)

// TestProductionFixed32TakesFMA packs every FC layer of the seed-1
// production models at Fixed32, as the engine does, and requires each to
// get an exact chunk (L >= 1): a served 32-bit layer must run the FMA
// kernels, not the reference fallback. A layer's weights are uniform in
// ±1/sqrt(in), so L ≈ sqrt(in)/16 whatever the seed; production-small's
// hidden layers read 300 / 512 / 362.
func TestProductionFixed32TakesFMA(t *testing.T) {
	f := fixedpoint.Fixed32
	for _, spec := range []*model.Spec{model.SmallProduction(), model.LargeProduction()} {
		params, err := spec.Materialize(model.MaterializeOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		weights, _ := params.Layers()
		for l, dim := range spec.LayerDims() {
			in, out := dim[0], dim[1]
			m := weights[l].Data
			w := kernels.Pack(in, out, func(i, j int) int32 { return int32(f.Quantize(float64(m[i*out+j]))) })
			chunk := kernels.FMAChunk(&w)
			t.Logf("%s layer %d (%dx%d): L = %d", spec.Name, l, in, out, chunk)
			if chunk < 1 {
				t.Errorf("%s layer %d (%dx%d): no exact FMA chunk", spec.Name, l, in, out)
			}
		}
		params.Release()
	}
}
