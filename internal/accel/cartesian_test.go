package accel

import (
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
	if s.IsProduct() || s.Bytes() != a.Bytes() || s.Name() != "A" {
		t.Errorf("Single: %+v bytes %d, source %d", s, s.Bytes(), a.Bytes())
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
	if n := accesses(l); n != 3 {
		t.Errorf("accesses = %d, want 3 (4 lookups -> 3 accesses)", n)
	}
	if p := l.Tables[0]; !p.IsProduct() || p.Sources[0].ID != 0 || p.Sources[1].ID != 3 {
		t.Errorf("first physical table = %q, want the t0 x t3 product", p.Name())
	}
	if l.Tables[1].Name() != "t1" {
		t.Errorf("second physical table = %q, want t1", l.Tables[1].Name())
	}
	// Overhead: product 10 rows x 4 dims = 160 B replaces (2+5)*2*4 = 56 B.
	if l.Overhead() != 160-56 {
		t.Errorf("Overhead = %d, want 104", l.Overhead())
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
		return p.Bytes() >= a.Bytes()+b.Bytes()
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
	before, after := accesses(unmerged), accesses(l)
	if before != 2 || after != 1 {
		t.Errorf("accesses before/after merge = %d/%d, want 2/1", before, after)
	}
}

// accesses is the number of physical memory accesses one inference needs
// under l: the quantity Cartesian products reduce.
func accesses(l *Layout) int {
	n := 0
	for _, t := range l.Tables {
		n += t.Lookups()
	}
	return n
}
