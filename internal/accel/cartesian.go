// Cartesian products, the paper's data-structure contribution (§3.3):
// merging embedding tables by relational Cartesian product so one memory
// access retrieves several embedding vectors.
//
// The product of tables A (rA rows, dA dims) and B (rB rows, dB dims) is a
// table with rA*rB rows of dA+dB dims; entry (i, j) is the concatenation
// A[i] ++ B[j]. Looking up the pair (i, j) becomes a single access at row
// i*rB + j. Products generalise to k tables with mixed-radix indexing.
//
// This is the plan's side of the idea: which tables merge, how a product's
// rows are numbered, and what it costs in storage and accesses — what
// placement, the timing model and Table 3 consume. Nothing here builds a
// product's rows: the CPU engine reads merged sources from their own tables,
// where a second copy would only cost memory.

package accel

import (
	"fmt"
	"strings"

	"microrec/internal/model"
)

// PhysicalTable is a unit of memory allocation: either a single source table
// or the Cartesian product of several. The placement algorithm works on
// physical tables; the lookup unit resolves one memory access per physical
// table per round.
type PhysicalTable struct {
	// Sources are the original tables merged into this one, in
	// concatenation order. len(Sources) == 1 means "not merged".
	Sources []model.TableSpec
}

// Single wraps one source table as a physical table.
func Single(t model.TableSpec) PhysicalTable {
	return PhysicalTable{Sources: []model.TableSpec{t}}
}

// Merge combines two or more tables into a Cartesian product. All sources
// must share the same per-inference lookup count: a single access retrieves
// one vector from each source, so their retrieval cadences must match.
func Merge(tables ...model.TableSpec) (PhysicalTable, error) {
	if len(tables) < 2 {
		return PhysicalTable{}, fmt.Errorf("accel: Merge needs at least 2 tables, got %d", len(tables))
	}
	for _, t := range tables {
		if err := t.Validate(); err != nil {
			return PhysicalTable{}, err
		}
		if t.Lookups != tables[0].Lookups {
			return PhysicalTable{}, fmt.Errorf("accel: lookup count mismatch: %q has %d, %q has %d",
				t.Name, t.Lookups, tables[0].Name, tables[0].Lookups)
		}
	}
	return PhysicalTable{Sources: append([]model.TableSpec(nil), tables...)}, nil
}

// IsProduct reports whether the physical table merges several sources.
func (p PhysicalTable) IsProduct() bool { return len(p.Sources) > 1 }

// Name returns a label, joining source names for products.
func (p PhysicalTable) Name() string {
	if len(p.Sources) == 1 {
		return p.Sources[0].Name
	}
	names := make([]string, len(p.Sources))
	for i, s := range p.Sources {
		names[i] = s.Name
	}
	return strings.Join(names, "x")
}

// Rows returns the row count: the product of source row counts.
func (p PhysicalTable) Rows() int64 {
	rows := int64(1)
	for _, s := range p.Sources {
		rows *= s.Rows
	}
	return rows
}

// Dim returns the entry vector length: the sum of source dims.
func (p PhysicalTable) Dim() int {
	d := 0
	for _, s := range p.Sources {
		d += s.Dim
	}
	return d
}

// Lookups returns the per-inference access count of the physical table.
func (p PhysicalTable) Lookups() int { return p.Sources[0].Lookups }

// Bytes returns the logical storage footprint.
func (p PhysicalTable) Bytes() int64 { return p.Rows() * int64(p.Dim()) * model.FloatBytes }

// VectorBytes returns the byte size transferred by one access.
func (p PhysicalTable) VectorBytes() int { return p.Dim() * model.FloatBytes }

// Layout is a model's physical table set after applying a merge plan. It is
// what the placement algorithm allocates to memory banks.
type Layout struct {
	// Spec is the source model.
	Spec *model.Spec
	// Tables are the physical tables, each covering one or more sources.
	Tables []PhysicalTable
}

// Apply builds a layout from merge groups: each group lists source table IDs
// to merge (order defines concatenation order); sources not mentioned stay
// single. A source may appear in at most one group.
func Apply(spec *model.Spec, groups [][]int) (*Layout, error) {
	used := make(map[int]bool)
	byID := make(map[int]model.TableSpec, len(spec.Tables))
	for _, t := range spec.Tables {
		byID[t.ID] = t
	}
	l := &Layout{Spec: spec}
	for _, g := range groups {
		if len(g) < 2 {
			return nil, fmt.Errorf("accel: merge group %v has fewer than 2 tables", g)
		}
		srcs := make([]model.TableSpec, len(g))
		for i, id := range g {
			t, ok := byID[id]
			if !ok {
				return nil, fmt.Errorf("accel: unknown table ID %d", id)
			}
			if used[id] {
				return nil, fmt.Errorf("accel: table ID %d appears in multiple groups", id)
			}
			used[id] = true
			srcs[i] = t
		}
		pt, err := Merge(srcs...)
		if err != nil {
			return nil, err
		}
		l.Tables = append(l.Tables, pt)
	}
	for _, t := range spec.Tables {
		if !used[t.ID] {
			l.Tables = append(l.Tables, Single(t))
		}
	}
	return l, nil
}

// NumMerged returns how many products the layout contains.
func (l *Layout) NumMerged() int {
	n := 0
	for _, t := range l.Tables {
		if t.IsProduct() {
			n++
		}
	}
	return n
}

// TotalBytes returns the layout's logical storage.
func (l *Layout) TotalBytes() int64 {
	var n int64
	for _, t := range l.Tables {
		n += t.Bytes()
	}
	return n
}

// Overhead returns the extra storage versus the unmerged model.
func (l *Layout) Overhead() int64 { return l.TotalBytes() - l.Spec.TotalBytes() }

// OverheadFraction returns Overhead relative to the unmerged model size —
// the quantity Table 3 reports as 103.2% / 101.9% storage.
func (l *Layout) OverheadFraction() float64 {
	return float64(l.Overhead()) / float64(l.Spec.TotalBytes())
}
