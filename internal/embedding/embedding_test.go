package embedding

import (
	"testing"
	"testing/quick"

	"microrec/internal/model"
)

func testParams(t *testing.T) *model.Parameters {
	t.Helper()
	spec := &model.Spec{
		Name: "tiny",
		Tables: []model.TableSpec{
			{ID: 0, Name: "a", Rows: 4, Dim: 2, Lookups: 1},
			{ID: 1, Name: "b", Rows: 1000, Dim: 3, Lookups: 2},
		},
		Hidden: []int{4},
	}
	p, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 8})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("x", 0, 4, []float32{1, 2}); err == nil {
		t.Error("dim 0: want error")
	}
	if _, err := NewTable("x", 3, 4, []float32{1, 2}); err == nil {
		t.Error("ragged data: want error")
	}
	if _, err := NewTable("x", 2, 0, []float32{1, 2}); err == nil {
		t.Error("logical < materialised: want error")
	}
	if _, err := NewTable("x", 2, 4, nil); err == nil {
		t.Error("empty data: want error")
	}
	tab, err := NewTable("x", 2, 8, []float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 2 || tab.Bytes() != 16 {
		t.Errorf("table rows=%d bytes=%d, want 2, 16", tab.Rows(), tab.Bytes())
	}
}

func TestLookupWrapsAndValidates(t *testing.T) {
	tab, err := NewTable("x", 2, 100, []float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	v0, err := tab.Lookup(0)
	if err != nil || v0[0] != 1 {
		t.Errorf("Lookup(0) = %v, %v", v0, err)
	}
	// Logical index 99 wraps to materialised row 99 % 2 == 1.
	v99, err := tab.Lookup(99)
	if err != nil || v99[0] != 3 {
		t.Errorf("Lookup(99) = %v, %v; want row 1", v99, err)
	}
	if _, err := tab.Lookup(100); err == nil {
		t.Error("Lookup beyond logical rows: want error")
	}
	if _, err := tab.Lookup(-1); err == nil {
		t.Error("Lookup(-1): want error")
	}
}

func TestStoreGather(t *testing.T) {
	p := testParams(t)
	s, err := NewStore(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTables() != 2 {
		t.Fatalf("NumTables = %d", s.NumTables())
	}
	if s.FeatureLen() != 2+2*3 {
		t.Errorf("FeatureLen = %d, want 8", s.FeatureLen())
	}
	out, err := s.Gather(Query{{1}, {0, 7}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 {
		t.Fatalf("gather length = %d, want 8", len(out))
	}
	// The concatenation must equal the individual lookups in order.
	t0, _ := s.Table(0)
	t1, _ := s.Table(1)
	v, _ := t0.Lookup(1)
	if out[0] != v[0] || out[1] != v[1] {
		t.Error("gather table-0 segment mismatch")
	}
	w0, _ := t1.Lookup(0)
	w7, _ := t1.Lookup(7)
	for i := 0; i < 3; i++ {
		if out[2+i] != w0[i] || out[5+i] != w7[i] {
			t.Error("gather table-1 segment mismatch")
		}
	}
}

func TestGatherReusesDst(t *testing.T) {
	p := testParams(t)
	s, err := NewStore(p)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, 0, s.FeatureLen())
	out, err := s.Gather(Query{{0}, {1, 2}}, dst)
	if err != nil {
		t.Fatal(err)
	}
	if cap(out) != cap(dst) {
		t.Error("Gather reallocated despite sufficient capacity")
	}
}

func TestGatherErrors(t *testing.T) {
	p := testParams(t)
	s, err := NewStore(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Gather(Query{{0}}, nil); err == nil {
		t.Error("short query: want error")
	}
	if _, err := s.Gather(Query{{0}, {99999}}, nil); err == nil {
		t.Error("out-of-range index: want error")
	}
	if _, err := s.Table(5); err == nil {
		t.Error("Table(5): want error")
	}
	if _, err := s.Table(-1); err == nil {
		t.Error("Table(-1): want error")
	}
}

func TestStoreTotalBytes(t *testing.T) {
	p := testParams(t)
	s, err := NewStore(p)
	if err != nil {
		t.Fatal(err)
	}
	// Table a: 4 rows x 2 dims; table b capped at 8 rows x 3 dims.
	want := int64((4*2 + 8*3) * 4)
	if got := s.TotalBytes(); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
}

// TestNewQueryRoundTrips checks NewQuery's layout: every table's slice has
// its lookup count and is the window of one array at the table's offset, so
// indices written through the windows read back from q[0]'s array in table
// order, and through the windows again — the Store's view of the query.
func TestNewQueryRoundTrips(t *testing.T) {
	rmc2, err := model.DLRMRMC2(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*model.Spec{testParams(t).Spec, model.SmallProduction(), rmc2} {
		q := NewQuery(spec)
		if len(q) != len(spec.Tables) {
			t.Fatalf("%s: %d tables, want %d", spec.Name, len(q), len(spec.Tables))
		}
		next := int64(0)
		for ti, ts := range spec.Tables {
			if len(q[ti]) != ts.Lookups {
				t.Fatalf("%s table %d: %d lookups, want %d", spec.Name, ti, len(q[ti]), ts.Lookups)
			}
			for k := range q[ti] {
				if q[ti][k] != 0 {
					t.Fatalf("%s table %d: not zeroed", spec.Name, ti)
				}
				q[ti][k] = next
				next++
			}
		}
		all := q[0][:cap(q[0])]
		if len(all) != spec.NumLookups() {
			t.Fatalf("%s: q[0]'s array holds %d indices, want %d", spec.Name, len(all), spec.NumLookups())
		}
		for i, v := range all {
			if v != int64(i) {
				t.Fatalf("%s: index %d of the array is %d, want %d", spec.Name, i, v, i)
			}
		}
		next = 0
		for ti := range q {
			for _, v := range q[ti] {
				if v != next {
					t.Fatalf("%s table %d: read back %d, want %d", spec.Name, ti, v, next)
				}
				next++
			}
		}
	}
}

// Property: gathering the same query twice yields identical vectors
// (lookup is pure).
func TestGatherDeterministicProperty(t *testing.T) {
	p := testParams(t)
	s, err := NewStore(p)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(i0 uint16, i1, i2 uint32) bool {
		q := Query{
			{int64(i0) % 4},
			{int64(i1) % 1000, int64(i2) % 1000},
		}
		a, err1 := s.Gather(q, nil)
		b, err2 := s.Gather(q, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGatherSmallModel(b *testing.B) {
	spec := model.SmallProduction()
	p, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 1024})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewStore(p)
	if err != nil {
		b.Fatal(err)
	}
	q := make(Query, len(spec.Tables))
	for i := range q {
		q[i] = []int64{int64(i*37) % spec.Tables[i].Rows}
	}
	dst := make([]float32, 0, s.FeatureLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Gather(q, dst); err != nil {
			b.Fatal(err)
		}
	}
}
