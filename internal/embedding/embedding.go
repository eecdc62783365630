// Package embedding implements float embedding-table storage for the float
// CPU baseline and the quantization studies: flat row-major float32 arrays
// with gather and concatenation, the operations behind the paper's
// "embedding layer" (§2.2). It also defines Query, every engine's input. The
// accelerator engine stores its tables at its datapath's width instead
// (internal/core).
package embedding

import (
	"fmt"

	"microrec/internal/model"
)

// Table is one materialised embedding table. Logical rows (the paper-scale
// row count) may exceed the materialised rows; lookups wrap, which preserves
// access-pattern randomness while capping memory (see DESIGN.md).
type Table struct {
	// Name is a human-readable label.
	Name string
	// Dim is the vector length.
	Dim int
	// LogicalRows is the advertised row count used for index validation.
	LogicalRows int64
	// data holds materialised rows row-major, len = rows*Dim.
	data []float32
	rows int64
}

// NewTable wraps existing row-major data. The data length must be a multiple
// of dim; logicalRows must be at least the materialised rows.
func NewTable(name string, dim int, logicalRows int64, data []float32) (*Table, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("embedding: table %q dim %d", name, dim)
	}
	if len(data) == 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("embedding: table %q data length %d not a positive multiple of dim %d", name, len(data), dim)
	}
	rows := int64(len(data) / dim)
	if logicalRows < rows {
		return nil, fmt.Errorf("embedding: table %q logical rows %d < materialised rows %d", name, logicalRows, rows)
	}
	return &Table{Name: name, Dim: dim, LogicalRows: logicalRows, data: data, rows: rows}, nil
}

// Rows returns the materialised row count.
func (t *Table) Rows() int64 { return t.rows }

// Lookup returns the vector for a logical row index. The returned slice
// aliases the table storage; callers must not modify it.
func (t *Table) Lookup(index int64) ([]float32, error) {
	if index < 0 || index >= t.LogicalRows {
		return nil, fmt.Errorf("embedding: index %d out of range for table %q (%d logical rows)", index, t.Name, t.LogicalRows)
	}
	r := index % t.rows
	return t.data[r*int64(t.Dim) : (r+1)*int64(t.Dim)], nil
}

// Bytes returns the materialised storage footprint.
func (t *Table) Bytes() int64 { return int64(len(t.data)) * model.FloatBytes }

// Store holds a model's embedding tables indexed by table ID and implements
// the gather-and-concatenate step of the embedding layer.
type Store struct {
	tables []*Table
	// featureLen caches the concatenated output length for one lookup of
	// every table.
	featureLen int
}

// NewStore builds a Store of whole float tables from materialised model
// parameters (Parameters.FloatTables: heap memory, meant for small row caps).
func NewStore(p *model.Parameters) (*Store, error) {
	tables, err := p.FloatTables()
	if err != nil {
		return nil, err
	}
	s := &Store{tables: make([]*Table, len(tables))}
	for i, data := range tables {
		spec := p.Spec.Tables[i]
		t, err := NewTable(spec.Name, spec.Dim, spec.Rows, data)
		if err != nil {
			return nil, err
		}
		s.tables[i] = t
		s.featureLen += spec.Dim * spec.Lookups
	}
	return s, nil
}

// NumTables returns the number of tables.
func (s *Store) NumTables() int { return len(s.tables) }

// Table returns table i.
func (s *Store) Table(i int) (*Table, error) {
	if i < 0 || i >= len(s.tables) {
		return nil, fmt.Errorf("embedding: table %d out of range (%d tables)", i, len(s.tables))
	}
	return s.tables[i], nil
}

// FeatureLen returns the concatenated feature length produced by Gather.
func (s *Store) FeatureLen() int { return s.featureLen }

// Query is one inference's sparse input: for each table, the logical row
// indices to retrieve (len == the table's Lookups). A query is one array of
// indices, table after table: q[t] is the window of that array at table t's
// offset (the lookups of the tables before it), and the array is q[0]'s up to
// its capacity. NewQuery builds that layout. The engine (internal/core) reads
// a query's indices from the one array, never through the per-table slices,
// and rejects any other layout; the float Store here reads q[t] and accepts
// any.
type Query [][]int64

// NewQuery returns a zeroed query shaped and laid out for spec: one array of
// spec.NumLookups() indices, sliced per table in table order. The windows are
// not capped, so appending to one overwrites the tables after it; write the
// indices in place.
func NewQuery(spec *model.Spec) Query {
	q := make(Query, len(spec.Tables))
	all := make([]int64, spec.NumLookups())
	off := 0
	for t, ts := range spec.Tables {
		q[t] = all[off : off+ts.Lookups]
		off += ts.Lookups
	}
	return q
}

// Gather resolves a query into the concatenated dense feature vector,
// appending into dst (allocated with the right capacity if nil). The layout
// is table-major, lookup-minor: t0.l0, t0.l1, ..., t1.l0, ... — matching the
// concatenation order the FC tower was trained with.
func (s *Store) Gather(q Query, dst []float32) ([]float32, error) {
	if len(q) != len(s.tables) {
		return nil, fmt.Errorf("embedding: query covers %d tables, store has %d", len(q), len(s.tables))
	}
	if dst == nil {
		dst = make([]float32, 0, s.featureLen)
	} else {
		dst = dst[:0]
	}
	for i, idxs := range q {
		t := s.tables[i]
		for _, idx := range idxs {
			v, err := t.Lookup(idx)
			if err != nil {
				return nil, err
			}
			dst = append(dst, v...)
		}
	}
	return dst, nil
}

// TotalBytes returns the materialised footprint of all tables.
func (s *Store) TotalBytes() int64 {
	var n int64
	for _, t := range s.tables {
		n += t.Bytes()
	}
	return n
}
