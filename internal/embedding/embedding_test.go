package embedding

import (
	"testing"

	"microrec/internal/model"
)

// tinySpec has one table looked up once and one looked up twice.
func tinySpec() *model.Spec {
	return &model.Spec{
		Name: "tiny",
		Tables: []model.TableSpec{
			{ID: 0, Name: "a", Rows: 4, Dim: 2, Lookups: 1},
			{ID: 1, Name: "b", Rows: 1000, Dim: 3, Lookups: 2},
		},
		Hidden: []int{4},
	}
}

// TestNewQueryRoundTrips checks NewQuery's layout: every table's slice has
// its lookup count and is the window of one array at the table's offset, so
// indices written through the windows read back from q[0]'s array in table
// order, and through the windows again — the float reference's view of the
// query.
func TestNewQueryRoundTrips(t *testing.T) {
	rmc2, err := model.DLRMRMC2(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*model.Spec{tinySpec(), model.SmallProduction(), rmc2} {
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
