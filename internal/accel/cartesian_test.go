package accel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"microrec/internal/model"
)

func spec2(t *testing.T) (*model.Spec, model.TableSpec, model.TableSpec) {
	t.Helper()
	a := model.TableSpec{ID: 0, Name: "A", Rows: 2, Dim: 2, Lookups: 1}
	b := model.TableSpec{ID: 1, Name: "B", Rows: 3, Dim: 4, Lookups: 1}
	s := &model.Spec{Name: "two", Tables: []model.TableSpec{a, b}, Hidden: []int{4}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s, a, b
}

func TestMergeBasics(t *testing.T) {
	_, a, b := spec2(t)
	p, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsProduct() {
		t.Error("merged table not a product")
	}
	if p.Rows() != 6 {
		t.Errorf("Rows = %d, want 6 (Figure 5: |A|x|B|)", p.Rows())
	}
	if p.Dim() != 6 {
		t.Errorf("Dim = %d, want 6 (dA+dB)", p.Dim())
	}
	if p.Name() != "AxB" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Bytes() != 6*6*4 {
		t.Errorf("Bytes = %d", p.Bytes())
	}
	if p.SourceBytes() != (2*2+3*4)*4 {
		t.Errorf("SourceBytes = %d", p.SourceBytes())
	}
	if p.Overhead() != p.Bytes()-p.SourceBytes() {
		t.Errorf("Overhead = %d", p.Overhead())
	}
}

func TestMergeErrors(t *testing.T) {
	_, a, b := spec2(t)
	if _, err := Merge(a); err == nil {
		t.Error("single-table merge: want error")
	}
	c := b
	c.Lookups = 2
	if _, err := Merge(a, c); err == nil {
		t.Error("lookup mismatch merge: want error")
	}
	bad := model.TableSpec{Name: "bad", Rows: 0, Dim: 1, Lookups: 1}
	if _, err := Merge(a, bad); err == nil {
		t.Error("invalid source merge: want error")
	}
}

func TestSingleHasNoOverhead(t *testing.T) {
	_, a, _ := spec2(t)
	s := Single(a)
	if s.IsProduct() || s.Overhead() != 0 || s.Name() != "A" {
		t.Errorf("Single: %+v overhead %d", s, s.Overhead())
	}
}

func TestIndexUnindexRoundTrip(t *testing.T) {
	_, a, b := spec2(t)
	c := model.TableSpec{ID: 2, Name: "C", Rows: 5, Dim: 1, Lookups: 1}
	p, err := Merge(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for i := int64(0); i < a.Rows; i++ {
		for j := int64(0); j < b.Rows; j++ {
			for k := int64(0); k < c.Rows; k++ {
				row, err := p.Index([]int64{i, j, k})
				if err != nil {
					t.Fatal(err)
				}
				if row < 0 || row >= p.Rows() {
					t.Fatalf("Index(%d,%d,%d) = %d out of range", i, j, k, row)
				}
				if seen[row] {
					t.Fatalf("Index collision at %d", row)
				}
				seen[row] = true
				back, err := p.Unindex(row)
				if err != nil {
					t.Fatal(err)
				}
				if back[0] != i || back[1] != j || back[2] != k {
					t.Fatalf("Unindex(%d) = %v, want [%d %d %d]", row, back, i, j, k)
				}
			}
		}
	}
	if len(seen) != int(p.Rows()) {
		t.Errorf("Index covered %d rows of %d", len(seen), p.Rows())
	}
}

func TestIndexErrors(t *testing.T) {
	_, a, b := spec2(t)
	p, _ := Merge(a, b)
	if _, err := p.Index([]int64{0}); err == nil {
		t.Error("short indices: want error")
	}
	if _, err := p.Index([]int64{0, 3}); err == nil {
		t.Error("out-of-range index: want error")
	}
	if _, err := p.Unindex(6); err == nil {
		t.Error("Unindex out of range: want error")
	}
	if _, err := p.Unindex(-1); err == nil {
		t.Error("Unindex(-1): want error")
	}
}

func TestApplyLayout(t *testing.T) {
	s := &model.Spec{
		Name: "four",
		Tables: []model.TableSpec{
			{ID: 0, Name: "t0", Rows: 2, Dim: 2, Lookups: 1},
			{ID: 1, Name: "t1", Rows: 3, Dim: 2, Lookups: 1},
			{ID: 2, Name: "t2", Rows: 4, Dim: 2, Lookups: 1},
			{ID: 3, Name: "t3", Rows: 5, Dim: 2, Lookups: 1},
		},
		Hidden: []int{4},
	}
	l, err := Apply(s, [][]int{{0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Tables) != 3 {
		t.Fatalf("layout has %d physical tables, want 3", len(l.Tables))
	}
	if l.NumMerged() != 1 {
		t.Errorf("NumMerged = %d, want 1", l.NumMerged())
	}
	if l.AccessesPerInference() != 3 {
		t.Errorf("AccessesPerInference = %d, want 3 (4 lookups -> 3 accesses)", l.AccessesPerInference())
	}
	ti, pos, err := l.Locate(3)
	if err != nil || pos != 1 {
		t.Errorf("Locate(3) = %d,%d,%v; want pos 1", ti, pos, err)
	}
	if !l.Tables[ti].IsProduct() {
		t.Error("Locate(3) does not point at the product")
	}
	t1i, _, err := l.Locate(1)
	if err != nil || l.Tables[t1i].Name() != "t1" {
		t.Errorf("Locate(1) -> %q, %v", l.Tables[t1i].Name(), err)
	}
	// Overhead: product 10 rows x 4 dims = 160 B replaces (2+5)*2*4 = 56 B.
	if l.Overhead() != 160-56 {
		t.Errorf("Overhead = %d, want 104", l.Overhead())
	}
	if _, _, err := l.Locate(99); err == nil {
		t.Error("Locate(99): want error")
	}
}

func TestApplyErrors(t *testing.T) {
	s, _, _ := spec2(t)
	if _, err := Apply(s, [][]int{{0}}); err == nil {
		t.Error("1-table group: want error")
	}
	if _, err := Apply(s, [][]int{{0, 9}}); err == nil {
		t.Error("unknown ID: want error")
	}
	if _, err := Apply(s, [][]int{{0, 1}, {1, 0}}); err == nil {
		t.Error("duplicate ID across groups: want error")
	}
}

func TestIdentityLayout(t *testing.T) {
	s, _, _ := spec2(t)
	l, err := Apply(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Tables) != 2 || l.NumMerged() != 0 || l.Overhead() != 0 {
		t.Errorf("layout without merge groups wrong: %d tables, %d merged, %d overhead",
			len(l.Tables), l.NumMerged(), l.Overhead())
	}
	if l.OverheadFraction() != 0 {
		t.Errorf("OverheadFraction = %v", l.OverheadFraction())
	}
}

// Property: for random shapes, Index is a bijection onto [0, Rows) — spot
// checked through random probes that Unindex inverts.
func TestIndexBijectionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prop := func(r1, r2 uint8, seed int64) bool {
		a := model.TableSpec{ID: 0, Name: "a", Rows: int64(r1%50) + 1, Dim: 2, Lookups: 1}
		b := model.TableSpec{ID: 1, Name: "b", Rows: int64(r2%50) + 1, Dim: 3, Lookups: 1}
		p, err := Merge(a, b)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		for n := 0; n < 10; n++ {
			i, j := r.Int63n(a.Rows), r.Int63n(b.Rows)
			row, err := p.Index([]int64{i, j})
			if err != nil {
				return false
			}
			back, err := p.Unindex(row)
			if err != nil || back[0] != i || back[1] != j {
				return false
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: layout storage overhead is always non-negative (a product can
// never be smaller than its sources since every source row appears at least
// once).
func TestOverheadNonNegativeProperty(t *testing.T) {
	prop := func(r1, r2 uint8, d1, d2 uint8) bool {
		a := model.TableSpec{ID: 0, Name: "a", Rows: int64(r1) + 1, Dim: int(d1)%16 + 1, Lookups: 1}
		b := model.TableSpec{ID: 1, Name: "b", Rows: int64(r2) + 1, Dim: int(d2)%16 + 1, Lookups: 1}
		p, err := Merge(a, b)
		if err != nil {
			return false
		}
		return p.Overhead() >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHalvedAccesses(t *testing.T) {
	// The headline claim of Figure 5: merging two tables turns two memory
	// accesses into one.
	s, _, _ := spec2(t)
	unmerged, err := Apply(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Apply(s, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	before, after := unmerged.AccessesPerInference(), l.AccessesPerInference()
	if before != 2 || after != 1 {
		t.Errorf("accesses before/after merge = %d/%d, want 2/1", before, after)
	}
}

func BenchmarkIndex(b *testing.B) {
	a := model.TableSpec{ID: 0, Name: "a", Rows: 1000, Dim: 4, Lookups: 1}
	c := model.TableSpec{ID: 1, Name: "b", Rows: 2000, Dim: 4, Lookups: 1}
	p, err := Merge(a, c)
	if err != nil {
		b.Fatal(err)
	}
	idx := []int64{123, 456}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Index(idx); err != nil {
			b.Fatal(err)
		}
	}
}
