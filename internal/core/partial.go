package core

import (
	"fmt"
	"sort"

	"microrec/internal/embedding"
)

// This file exposes the gather datapath in table-subset pieces — the entry
// points the sharded cluster tier is built on. A shard owns a subset of the
// model's tables (indices into Spec().Tables); it gathers that subset into a
// shard-local plane (GatherPartialIntoPlane), and the coordinator copies each
// shard's feature columns into its own plane (MergePartialPlane). Tables
// write disjoint feature columns, so the merged plane is bit-identical to a
// monolithic GatherIntoPlane over the same queries by construction: the same
// row-copy loop produced every value, and the merge only moves bits.

// ColSpan is a contiguous range of feature-vector columns.
type ColSpan struct {
	Off int
	Len int
}

// PartialSpans returns the merged, ascending feature-column spans written by
// the listed tables' gathers. Adjacent and overlapping spans are
// coalesced, so a merge loop touches each byte once. The spans of disjoint
// table subsets never overlap; the spans of a partition of all tables exactly
// cover [0, featureLen-denseDim).
func (e *Engine) PartialSpans(tables []int) ([]ColSpan, error) {
	var spans []ColSpan
	for _, ti := range tables {
		if ti < 0 || ti >= len(e.gplan.tables) {
			return nil, fmt.Errorf("core: table %d out of range (model has %d)", ti, len(e.gplan.tables))
		}
		for _, blk := range e.gplan.tables[ti] {
			spans = append(spans, ColSpan{Off: blk.off, Len: blk.dim})
		}
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].Off < spans[b].Off })
	merged := spans[:0]
	for _, sp := range spans {
		if n := len(merged); n > 0 && merged[n-1].Off+merged[n-1].Len >= sp.Off {
			if end := sp.Off + sp.Len; end > merged[n-1].Off+merged[n-1].Len {
				merged[n-1].Len = end - merged[n-1].Off
			}
			continue
		}
		merged = append(merged, sp)
	}
	return merged, nil
}

// GatherPartialIntoPlane gathers only the listed tables into the
// plane's feature rows, copying each row exactly as the monolithic gather
// would — on a tiered engine, each read recorded in the store's frequency
// window like any other gather's. Queries must have passed
// ValidateQuery and the plane must be sized (EnsurePlane) for at least
// len(queries); the call performs no validation, no allocation, and does not
// touch columns outside the listed tables' spans — in particular the dense
// tail, which the coordinator owns (ZeroDenseTail).
//
//microrec:noalloc
func (e *Engine) GatherPartialIntoPlane(tables []int, queries []embedding.Query, s *BatchScratch) {
	s.obs = GatherObs{ColdFaults: e.dp.gatherTables(&e.gplan, tables, queries, s)}
}

// ZeroDenseTail zeroes the dense tail of the plane's first b feature rows —
// the one feature region no table gather overwrites. The monolithic gather
// does this implicitly; a scatter/gather coordinator calls it once on its
// merged plane.
//
//microrec:noalloc
func (e *Engine) ZeroDenseTail(b int, s *BatchScratch) { e.dp.zeroDenseTail(b, s) }

// MergePartialPlane copies the given feature-column spans of the first b rows
// from src into dst — the coordinator's fan-in step. Both planes must be
// sized (EnsurePlane) for at least b. Spans from disjoint table subsets are
// disjoint, so merges of different shards' partials into one plane commute.
func (e *Engine) MergePartialPlane(b int, spans []ColSpan, src, dst *BatchScratch) {
	e.dp.mergePartial(b, spans, src, dst)
}
