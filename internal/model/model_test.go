package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
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

func TestWithLookupRounds(t *testing.T) {
	s := SmallProduction()
	r3, err := s.WithLookupRounds(3)
	if err != nil {
		t.Fatal(err)
	}
	if r3.NumLookups() != 3*s.NumLookups() {
		t.Errorf("rounds=3 lookups = %d, want %d", r3.NumLookups(), 3*s.NumLookups())
	}
	// Original is untouched.
	if s.NumLookups() != len(s.Tables) {
		t.Error("WithLookupRounds mutated the original spec")
	}
	if _, err := s.WithLookupRounds(0); err == nil {
		t.Error("WithLookupRounds(0): want error")
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

func TestCloneIsDeep(t *testing.T) {
	s := SmallProduction()
	c := s.Clone()
	c.Tables[0].Rows = 999999
	c.Hidden[0] = 7
	if s.Tables[0].Rows == 999999 || s.Hidden[0] == 7 {
		t.Error("Clone shares storage with original")
	}
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

// Property: FeatureLen scales linearly with lookup rounds for any valid round
// count.
func TestFeatureLenRoundsProperty(t *testing.T) {
	s := SmallProduction()
	base := s.FeatureLen()
	prop := func(r uint8) bool {
		rounds := int(r%6) + 1
		m, err := s.WithLookupRounds(rounds)
		if err != nil {
			return false
		}
		return m.FeatureLen() == base*rounds
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
