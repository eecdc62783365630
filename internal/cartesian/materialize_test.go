package cartesian

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"microrec/internal/embedding"
	"microrec/internal/model"
)

// divideProduct is the per-row form MaterializeProduct replaced: decompose
// every row index by divide and modulo, then copy each source row through
// Lookup. It is the reference the odometer must equal bit for bit.
func divideProduct(pt PhysicalTable, sources []*embedding.Table) []float32 {
	rows := int64(1)
	for _, s := range sources {
		rows *= s.Rows()
	}
	dim := int64(pt.Dim())
	data := make([]float32, rows*dim)
	idx := make([]int64, len(sources))
	for r := int64(0); r < rows; r++ {
		rem := r
		for i := len(sources) - 1; i >= 0; i-- {
			idx[i] = rem % sources[i].Rows()
			rem /= sources[i].Rows()
		}
		off := r * dim
		for i, s := range sources {
			v, err := s.Lookup(idx[i])
			if err != nil {
				panic(err)
			}
			off += int64(copy(data[off:], v))
		}
	}
	return data
}

// randomSources builds one table per (materialised rows, dim) pair, filled
// with random values, each advertising more logical rows than it holds.
func randomSources(t testing.TB, rng *rand.Rand, shapes [][2]int) (PhysicalTable, []*embedding.Table) {
	specs := make([]model.TableSpec, len(shapes))
	tabs := make([]*embedding.Table, len(shapes))
	for i, sh := range shapes {
		rows, dim := sh[0], sh[1]
		specs[i] = model.TableSpec{ID: i, Name: fmt.Sprintf("s%d", i), Rows: int64(rows) * 3, Dim: dim, Lookups: 1}
		data := make([]float32, rows*dim)
		for j := range data {
			data[j] = rng.Float32()
		}
		tab, err := embedding.NewTable(specs[i].Name, dim, specs[i].Rows, data)
		if err != nil {
			t.Fatal(err)
		}
		tabs[i] = tab
	}
	pt, err := Merge(specs...)
	if err != nil {
		t.Fatal(err)
	}
	return pt, tabs
}

// TestMaterializeProductMatchesDivideForm holds the odometer to the divide +
// Lookup form on 2- and 3-way products, 1-row sources included.
func TestMaterializeProductMatchesDivideForm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shapes := range [][][2]int{
		{{2, 2}, {3, 4}},
		{{1, 4}, {7, 4}},
		{{7, 4}, {1, 4}},
		{{1, 3}, {1, 5}},
		{{13, 4}, {29, 8}},
		{{3, 4}, {5, 2}, {4, 3}},
		{{1, 4}, {6, 4}, {1, 2}},
		{{5, 1}, {1, 1}, {9, 16}},
	} {
		pt, tabs := randomSources(t, rng, shapes)
		m, err := MaterializeProduct(pt, tabs)
		if err != nil {
			t.Fatal(err)
		}
		want := divideProduct(pt, tabs)
		if len(m.Data) != len(want) {
			t.Fatalf("%v: %d values, want %d", shapes, len(m.Data), len(want))
		}
		for i := range want {
			if math.Float32bits(m.Data[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%v: value %d = %v, want %v", shapes, i, m.Data[i], want[i])
			}
		}
		m.Release()
	}
}

// BenchmarkMaterializeProduct builds the largest product of the large
// production model at the benchmark's row cap: two 2 100-row dim-4 tables,
// 4.4 M rows of 8 floats.
func BenchmarkMaterializeProduct(b *testing.B) {
	pt, tabs := randomSources(b, rand.New(rand.NewSource(1)), [][2]int{{2100, 4}, {2100, 4}})
	for i := 0; i < b.N; i++ {
		m, err := MaterializeProduct(pt, tabs)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2100*2100), "ns/row")
}
