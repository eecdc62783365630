// Package embedding defines Query, every engine's input: the sparse indices
// of one inference, laid out as the engine (internal/core) reads them. The
// embedding tables themselves live at the datapath's width in the engine;
// their float values are model.Parameters' (ReadRows, Features).
package embedding

import "microrec/internal/model"

// Query is one inference's sparse input: for each table, the logical row
// indices to retrieve (len == the table's Lookups). A query is one array of
// indices, table after table: q[t] is the window of that array at table t's
// offset (the lookups of the tables before it), and the array is q[0]'s up to
// its capacity. NewQuery builds that layout. The engine (internal/core) reads
// a query's indices from the one array, never through the per-table slices,
// and rejects any other layout; the float reference (model.Parameters.
// Features) reads q[t] and accepts any.
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
