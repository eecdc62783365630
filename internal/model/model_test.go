package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSmallProductionMatchesTable1(t *testing.T) {
	s := SmallProduction()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Tables); got != 47 {
		t.Errorf("small model table count = %d, want 47 (Table 1)", got)
	}
	if got := s.FeatureLen(); got != 352 {
		t.Errorf("small model feature length = %d, want 352 (Table 1)", got)
	}
	wantHidden := []int{1024, 512, 256}
	for i, h := range wantHidden {
		if s.Hidden[i] != h {
			t.Errorf("small hidden[%d] = %d, want %d", i, s.Hidden[i], h)
		}
	}
	gb := float64(s.TotalBytes()) / (1 << 30)
	if gb < 1.1 || gb > 1.5 {
		t.Errorf("small model size = %.2f GiB, want ~1.3 (Table 1)", gb)
	}
}

func TestLargeProductionMatchesTable1(t *testing.T) {
	s := LargeProduction()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Tables); got != 98 {
		t.Errorf("large model table count = %d, want 98 (Table 1)", got)
	}
	if got := s.FeatureLen(); got != 876 {
		t.Errorf("large model feature length = %d, want 876 (Table 1)", got)
	}
	gb := float64(s.TotalBytes()) / (1 << 30)
	if gb < 14 || gb > 16.5 {
		t.Errorf("large model size = %.2f GiB, want ~15.1 (Table 1)", gb)
	}
}

func TestProductionOpsPerItem(t *testing.T) {
	// GOP/item must match the paper's implied operation counts: Table 2's
	// small model reports 619.5 GOP/s at 3.05e5 items/s => ~2.03 MOP/item.
	small := SmallProduction()
	if got := small.OpsPerItem(); got != 2*(352*1024+1024*512+512*256+256*1) {
		t.Errorf("small OpsPerItem = %d", got)
	}
	mops := float64(small.OpsPerItem()) / 1e6
	if mops < 2.0 || mops > 2.1 {
		t.Errorf("small model %.3f MOP/item, want ~2.03", mops)
	}
	large := LargeProduction()
	mopsL := float64(large.OpsPerItem()) / 1e6
	if mopsL < 3.0 || mopsL > 3.2 {
		t.Errorf("large model %.3f MOP/item, want ~3.11", mopsL)
	}
}

func TestProductionLookupCounts(t *testing.T) {
	// Production models look up each table exactly once (footnote 1).
	for _, s := range []*Spec{SmallProduction(), LargeProduction()} {
		if s.NumLookups() != len(s.Tables) {
			t.Errorf("%s: %d lookups for %d tables", s.Name, s.NumLookups(), len(s.Tables))
		}
	}
}

func TestTableSpecValidate(t *testing.T) {
	bad := []TableSpec{
		{Name: "a", Rows: 0, Dim: 4, Lookups: 1},
		{Name: "b", Rows: 10, Dim: 0, Lookups: 1},
		{Name: "c", Rows: 10, Dim: 4, Lookups: 0},
	}
	for _, ts := range bad {
		if err := ts.Validate(); err == nil {
			t.Errorf("Validate(%+v): want error", ts)
		}
	}
	good := TableSpec{Name: "d", Rows: 10, Dim: 4, Lookups: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v): %v", good, err)
	}
}

func TestSpecValidateCatchesBadIDs(t *testing.T) {
	s := SmallProduction()
	s.Tables[3].ID = 99
	if err := s.Validate(); err == nil {
		t.Error("Validate with shuffled ID: want error")
	}
}

func TestSpecValidateCatchesEmpty(t *testing.T) {
	if err := (&Spec{Name: "x", Hidden: []int{8}}).Validate(); err == nil {
		t.Error("Validate with no tables: want error")
	}
	if err := (&Spec{Name: "x", Tables: []TableSpec{{Rows: 1, Dim: 1, Lookups: 1}}}).Validate(); err == nil {
		t.Error("Validate with no hidden layers: want error")
	}
}

func TestDLRMRMC2(t *testing.T) {
	s, err := DLRMRMC2(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tables) != 8 {
		t.Errorf("tables = %d, want 8", len(s.Tables))
	}
	if s.NumLookups() != 32 {
		t.Errorf("lookups = %d, want 32 (4 per table, §5.4.2)", s.NumLookups())
	}
	// Every table must fit a 256 MB HBM bank.
	for _, tab := range s.Tables {
		if tab.Bytes() > 256<<20 {
			t.Errorf("table %q is %d bytes, exceeds one HBM bank", tab.Name, tab.Bytes())
		}
	}
	if _, err := DLRMRMC2(0, 16); err == nil {
		t.Error("DLRMRMC2(0, _): want error")
	}
	if _, err := DLRMRMC2(8, 0); err == nil {
		t.Error("DLRMRMC2(_, 0): want error")
	}
}

func TestLayerDims(t *testing.T) {
	s := SmallProduction()
	dims := s.LayerDims()
	want := [][2]int{{352, 1024}, {1024, 512}, {512, 256}, {256, 1}}
	if len(dims) != len(want) {
		t.Fatalf("LayerDims length = %d, want %d", len(dims), len(want))
	}
	for i := range want {
		if dims[i] != want[i] {
			t.Errorf("LayerDims[%d] = %v, want %v", i, dims[i], want[i])
		}
	}
}

func TestMaterializeDeterminism(t *testing.T) {
	s := SmallProduction()
	a, err := s.Materialize(MaterializeOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Materialize(MaterializeOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := floatTables(t, a), floatTables(t, b)
	for i := range ta {
		for j := range ta[i] {
			if ta[i][j] != tb[i][j] {
				t.Fatalf("embedding table %d differs at %d between same-seed materialisations", i, j)
			}
		}
	}
	c, err := s.Materialize(MaterializeOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	tc := floatTables(t, c)
	if ta[0][0] == tc[0][0] && ta[0][1] == tc[0][1] {
		t.Error("different seeds produced identical leading values")
	}
}

func TestMaterializeCapsRows(t *testing.T) {
	s := SmallProduction()
	p, err := s.Materialize(MaterializeOptions{Seed: 1, MaxRowsPerTable: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i, t2 := range s.Tables {
		wantRows := t2.Rows
		if wantRows > 64 {
			wantRows = 64
		}
		if p.ActualRows[i] != wantRows {
			t.Errorf("table %d ActualRows = %d, want %d", i, p.ActualRows[i], wantRows)
		}
		if tabs := floatTables(t, p); int64(len(tabs[i])) != wantRows*int64(t2.Dim) {
			t.Errorf("table %d storage = %d floats", i, len(tabs[i]))
		}
	}
	if _, err := s.Materialize(MaterializeOptions{MaxRowsPerTable: -1}); err == nil {
		t.Error("negative row cap: want error")
	}
}

func TestMaterializeWeightShapes(t *testing.T) {
	s := SmallProduction()
	p, err := s.Materialize(MaterializeOptions{Seed: 1, MaxRowsPerTable: 16})
	if err != nil {
		t.Fatal(err)
	}
	dims := s.LayerDims()
	weights, biases := p.Layers()
	if len(weights) != len(dims) {
		t.Fatalf("weights = %d layers, want %d", len(weights), len(dims))
	}
	for l, d := range dims {
		if weights[l].Rows != d[0] || weights[l].Cols != d[1] {
			t.Errorf("layer %d weight %dx%d, want %dx%d", l, weights[l].Rows, weights[l].Cols, d[0], d[1])
		}
		if len(biases[l]) != d[1] {
			t.Errorf("layer %d bias length %d, want %d", l, len(biases[l]), d[1])
		}
	}
}

func TestRowWrapsLogicalIndex(t *testing.T) {
	s := SmallProduction()
	p, err := s.Materialize(MaterializeOptions{Seed: 1, MaxRowsPerTable: 8})
	if err != nil {
		t.Fatal(err)
	}
	// user_id is the last table with 8M logical rows; index 1e6 must wrap.
	last := len(s.Tables) - 1
	big, err := p.Row(last, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := p.Row(last, 1_000_000%8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range big {
		if big[i] != wrapped[i] {
			t.Fatal("logical index did not wrap through scaled storage")
		}
	}
	if _, err := p.Row(last, s.Tables[last].Rows); err == nil {
		t.Error("Row beyond logical rows: want error")
	}
	if _, err := p.Row(-1, 0); err == nil {
		t.Error("Row with negative table: want error")
	}
	if _, err := p.Row(last, -1); err == nil {
		t.Error("Row with negative index: want error")
	}
}

// floatTables is p.FloatTables for a test.
func floatTables(t *testing.T, p *Parameters) [][]float32 {
	t.Helper()
	tabs, err := p.FloatTables()
	if err != nil {
		t.Fatal(err)
	}
	return tabs
}

func TestWeightInitBounded(t *testing.T) {
	s := SmallProduction()
	p, err := s.Materialize(MaterializeOptions{Seed: 2, MaxRowsPerTable: 4})
	if err != nil {
		t.Fatal(err)
	}
	weights, _ := p.Layers()
	for l, w := range weights {
		bound := float32(1/math.Sqrt(float64(w.Rows))) + 1e-6
		for _, v := range w.Data {
			if v > bound || v < -bound {
				t.Fatalf("layer %d weight %v exceeds Xavier bound %v", l, v, bound)
			}
		}
	}
}

// Property: with every table looked up r times per inference, FeatureLen
// and NumLookups scale the embedding part by r and leave the dense tail as
// it is, and the spec still validates.
func TestFeatureLenRoundsProperty(t *testing.T) {
	s := SmallProduction()
	s.DenseDim = 13
	embed, lookups := s.FeatureLen()-s.DenseDim, s.NumLookups()
	prop := func(r uint8) bool {
		rounds := int(r%6) + 1
		m := *s
		m.Tables = append([]TableSpec(nil), s.Tables...)
		for i := range m.Tables {
			m.Tables[i].Lookups *= rounds
		}
		return m.Validate() == nil &&
			m.FeatureLen() == s.DenseDim+embed*rounds &&
			m.NumLookups() == lookups*rounds
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: table Bytes is always rows*dim*4 and non-negative for valid specs.
func TestBytesProperty(t *testing.T) {
	prop := func(rows uint16, dim uint8) bool {
		ts := TableSpec{Rows: int64(rows) + 1, Dim: int(dim)%64 + 1, Lookups: 1}
		return ts.Bytes() == ts.Rows*int64(ts.Dim)*4 && ts.Bytes() > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := SmallProduction()
	var buf bytes.Buffer
	if err := SaveSpec(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := loadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || len(got.Tables) != len(s.Tables) || got.FeatureLen() != s.FeatureLen() {
		t.Errorf("round trip lost data: %+v", got)
	}
	for i := range s.Tables {
		if got.Tables[i] != s.Tables[i] {
			t.Fatalf("table %d differs: %+v vs %+v", i, got.Tables[i], s.Tables[i])
		}
	}
}

func TestSaveSpecRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveSpec(&buf, &Spec{Name: "bad"}); err == nil {
		t.Error("invalid spec: want error")
	}
}

// loadSpec reads a JSON spec and validates it, the inverse of SaveSpec.
func loadSpec(r io.Reader) (*Spec, error) {
	var s Spec
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("model: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// referenceSpec is a small model with a dense tail, for the float reference
// tests.
func referenceSpec() *Spec {
	return &Spec{
		Name: "reference",
		Tables: []TableSpec{
			{ID: 0, Name: "a", Rows: 4, Dim: 2, Lookups: 1},
			{ID: 1, Name: "b", Rows: 1000, Dim: 3, Lookups: 2},
		},
		DenseDim: 3,
		Hidden:   []int{8, 5},
	}
}

// TestFeaturesValidatesAndZeroesDense checks that Features rejects a query of
// the wrong shape, an out-of-range index or a wrong-length destination, and
// that a reused destination comes back with a zero dense tail.
func TestFeaturesValidatesAndZeroesDense(t *testing.T) {
	s := referenceSpec()
	p, err := s.Materialize(MaterializeOptions{Seed: 1, MaxRowsPerTable: 8})
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string][][]int64{
		"short query":     {{0}},
		"missing lookups": {{0}, {1}},
		"index too large": {{4}, {1, 2}},
		"negative index":  {{0}, {1, -1}},
	} {
		if _, err := p.Features(q, nil); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	q := [][]int64{{3}, {999, 8}}
	if _, err := p.Features(q, make([]float32, s.FeatureLen()-1)); err == nil {
		t.Error("short destination: want error")
	}
	want, err := p.Features(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, s.FeatureLen())
	for i := range dst {
		dst[i] = 7
	}
	got, err := p.Features(q, dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("features[%d] = %v into a reused destination, %v into a fresh one", i, got[i], want[i])
		}
	}
	for i, v := range want[s.FeatureLen()-s.DenseDim:] {
		if v != 0 {
			t.Errorf("dense feature %d = %v, want 0", i, v)
		}
	}
}

// TestForwardLayerCallback checks that Forward's callback sees one output
// per layer, in order, each of the layer's width — post-ReLU on the hidden
// layers, the logit last — and that the prediction is the logit's sigmoid,
// the same with and without the callback.
func TestForwardLayerCallback(t *testing.T) {
	s := referenceSpec()
	p, err := s.Materialize(MaterializeOptions{Seed: 2, MaxRowsPerTable: 8})
	if err != nil {
		t.Fatal(err)
	}
	feat, err := p.Features([][]int64{{1}, {5, 600}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dims := s.LayerDims()
	var layers []int
	var logit float32
	pred, err := p.Forward(feat, func(l int, out []float32) {
		layers = append(layers, l)
		if len(out) != dims[l][1] {
			t.Errorf("layer %d output has %d values, want %d", l, len(out), dims[l][1])
		}
		if l < len(dims)-1 {
			for j, v := range out {
				if v < 0 {
					t.Errorf("layer %d output %d = %v before ReLU", l, j, v)
				}
			}
		} else {
			logit = out[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != len(dims) {
		t.Fatalf("callback saw layers %v, want %d", layers, len(dims))
	}
	for i, l := range layers {
		if l != i {
			t.Fatalf("callback saw layers %v, want 0..%d in order", layers, len(dims)-1)
		}
	}
	if want := float32(1 / (1 + math.Exp(-float64(logit)))); pred != want {
		t.Errorf("prediction %v, want sigmoid(logit %v) = %v", pred, logit, want)
	}
	bare, err := p.Forward(feat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float32bits(bare) != math.Float32bits(pred) {
		t.Errorf("prediction %v without the callback, %v with it", bare, pred)
	}
	if _, err := p.Forward(feat[1:], nil); err == nil {
		t.Error("short feature vector: want error")
	}
}

// TestForwardHandComputed pins Forward's arithmetic on a tower whose weights
// are set by hand: x·W plus bias, ReLU on the hidden layer only (a negative
// logit reaches the sigmoid unclamped).
func TestForwardHandComputed(t *testing.T) {
	s := &Spec{
		Name:   "hand",
		Tables: []TableSpec{{ID: 0, Name: "a", Rows: 4, Dim: 2, Lookups: 1}},
		Hidden: []int{2},
	}
	p, err := s.Materialize(MaterializeOptions{Seed: 1, MaxRowsPerTable: 4})
	if err != nil {
		t.Fatal(err)
	}
	weights, biases := p.Layers()
	// Hidden: h0 = 1·x0 + 2·x1 + 0.5, h1 = -1·x0 + 1·x1 - 4 (ReLU'd to 0).
	copy(weights[0].Data, []float32{1, -1, 2, 1})
	copy(biases[0], []float32{0.5, -4})
	// Logit: 3·h0 - 1·h1 - 20.
	copy(weights[1].Data, []float32{3, -1})
	copy(biases[1], []float32{-20})
	var hidden []float32
	var logit float32
	pred, err := p.Forward([]float32{1, 2}, func(l int, out []float32) {
		if l == 0 {
			hidden = append(hidden, out...)
		} else {
			logit = out[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hidden) != 2 || hidden[0] != 5.5 || hidden[1] != 0 {
		t.Errorf("hidden layer %v, want [5.5 0]", hidden)
	}
	if logit != -3.5 {
		t.Errorf("logit %v, want -3.5 (no ReLU on the output layer)", logit)
	}
	if want := float32(1 / (1 + math.Exp(3.5))); math.Abs(float64(pred-want)) > 1e-7 {
		t.Errorf("prediction %v, want sigmoid(-3.5) = %v", pred, want)
	}
}

// TestGatherReusesDst checks that Features writes into the caller's
// destination and returns it, and allocates a FeatureLen vector for a nil
// one.
func TestGatherReusesDst(t *testing.T) {
	s := referenceSpec()
	p, err := s.Materialize(MaterializeOptions{Seed: 1, MaxRowsPerTable: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := [][]int64{{0}, {1, 2}}
	fresh, err := p.Features(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != s.FeatureLen() {
		t.Fatalf("Features(nil dst) has %d values, want %d", len(fresh), s.FeatureLen())
	}
	dst := make([]float32, s.FeatureLen())
	out, err := p.Features(q, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(dst) || &out[0] != &dst[0] {
		t.Error("Features did not return the caller's destination")
	}
}

// TestLookupWrapsAndValidates checks the feature vector's lookups: a logical
// index past the materialised rows reads the row it wraps to (index modulo
// the materialised rows), and the last logical row is the end of the range.
func TestLookupWrapsAndValidates(t *testing.T) {
	s := referenceSpec()
	p, err := s.Materialize(MaterializeOptions{Seed: 3, MaxRowsPerTable: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.ActualRows[1] != 8 {
		t.Fatalf("table b holds %d rows, want the cap of 8", p.ActualRows[1])
	}
	big, err := p.Features([][]int64{{3}, {999, 10}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	small, err := p.Features([][]int64{{3}, {999 % 8, 10 % 8}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range big {
		if math.Float32bits(big[i]) != math.Float32bits(small[i]) {
			t.Fatalf("feature %d = %v at the logical indices, %v at the wrapped ones", i, big[i], small[i])
		}
	}
	if _, err := p.Features([][]int64{{3}, {1000, 0}}, nil); err == nil {
		t.Error("index one past the logical rows: want error")
	}
}

// Property: Features is pure and is the spec-order, lookup-minor
// concatenation of the rows Row reads, followed by the zero dense features.
func TestGatherDeterministicProperty(t *testing.T) {
	s := referenceSpec()
	p, err := s.Materialize(MaterializeOptions{Seed: 4, MaxRowsPerTable: 8})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(i0 uint16, i1, i2 uint32) bool {
		q := [][]int64{{int64(i0) % 4}, {int64(i1) % 1000, int64(i2) % 1000}}
		a, err1 := p.Features(q, nil)
		b, err2 := p.Features(q, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		var want []float32
		for ti := range q {
			for _, idx := range q[ti] {
				row, err := p.Row(ti, idx)
				if err != nil {
					return false
				}
				want = append(want, row...)
			}
		}
		want = append(want, make([]float32, s.DenseDim)...)
		for i := range want {
			if math.Float32bits(a[i]) != math.Float32bits(want[i]) || math.Float32bits(b[i]) != math.Float32bits(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFeaturesAfterRelease checks that the float reference loses its rows
// with the checkpoints and keeps its FC tower: Features fails after Release,
// and Forward over features read before it returns the same prediction.
func TestFeaturesAfterRelease(t *testing.T) {
	s := referenceSpec()
	p, err := s.Materialize(MaterializeOptions{Seed: 5, MaxRowsPerTable: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := [][]int64{{2}, {7, 500}}
	feat, err := p.Features(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Forward(feat, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Release()
	if _, err := p.Features(q, nil); err == nil {
		t.Error("Features after Release: want error")
	}
	after, err := p.Forward(feat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float32bits(after) != math.Float32bits(before) {
		t.Errorf("prediction %v after Release, %v before", after, before)
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("newMatrix(-1, 2): want panic")
		}
	}()
	newMatrix(-1, 2)
}

// TestVecMatMatchesTransposedMatVec holds vecMat bit for bit to matVec over
// the transpose, zeros in x included (a ReLU output has many).
func TestVecMatMatchesTransposedMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sh := range [][2]int{{1, 1}, {3, 2}, {352, 64}, {200, 1}} {
		a := newMatrix(sh[0], sh[1])
		for i := range a.Data {
			a.Data[i] = rng.Float32()*2 - 1
		}
		x := make([]float32, sh[0])
		for i := range x {
			if rng.Intn(3) > 0 {
				x[i] = rng.Float32()*4 - 2
			}
		}
		got, err := vecMat(x, a)
		if err != nil {
			t.Fatal(err)
		}
		want := matVec(transpose(a), x)
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("%dx%d: y[%d] = %v, want %v", sh[0], sh[1], j, got[j], want[j])
			}
		}
	}
	if _, err := vecMat([]float32{1}, newMatrix(2, 2)); err == nil {
		t.Error("vecMat length mismatch: want error")
	}
}

// TestMatrixRowIsView checks that Row(i) is row i of Data, not a copy:
// writes through it land in the matrix.
func TestMatrixRowIsView(t *testing.T) {
	m := newMatrix(3, 2)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	r := m.Row(1)
	if len(r) != 2 || r[0] != 2 || r[1] != 3 {
		t.Fatalf("Row(1) = %v, want [2 3]", r)
	}
	r[1] = 9
	if m.Data[3] != 9 {
		t.Error("write through Row(1) did not reach Data")
	}
}

// TestReLU checks that relu zeroes negatives and keeps the rest. The
// sigmoid on the logit is TestForwardHandComputed's.
func TestReLU(t *testing.T) {
	xs := []float32{-1, 0, 2}
	relu(xs)
	if xs[0] != 0 || xs[1] != 0 || xs[2] != 2 {
		t.Errorf("relu = %v", xs)
	}
}

// matVec computes y = A * x for a (m x k) matrix and length-k vector, one
// row's dot product at a time: the reference vecMat is held to.
func matVec(a *Matrix, x []float32) []float32 {
	y := make([]float32, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var sum float32
		for j, v := range a.Row(i) {
			sum += v * x[j]
		}
		y[i] = sum
	}
	return y
}

// transpose returns aᵀ.
func transpose(a *Matrix) *Matrix {
	t := newMatrix(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}
