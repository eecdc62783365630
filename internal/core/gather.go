package core

import (
	"math/bits"

	"microrec/internal/embedding"
	"microrec/internal/tieredstore"
)

// This file implements the batched gather datapath: a gather plan compiled
// once at Build feeding GatherIntoPlane, which resolves a whole micro-batch's
// lookups and copies each embedding vector — stored at the datapath's width,
// quantized once when the tables were filled — straight into the
// fixed-point batch buffer: no conversion, no per-query float feature
// vector, no allocation in the hot loop.
//
// The plan is a list of lookup *blocks* per table, in spec order. A block is
// one table at one lookup round: the row storage, how the batch's logical
// indices become a row number, and which feature columns the row lands in.
// (The accelerator merges small tables into Cartesian products it reads in
// one access from banked memory; on a CPU a product would be a second,
// DRAM-sized copy of tables that stay in cache, so the engine reads each
// table where it is.) The gather (fixedPath.gatherTables in plane.go, generic
// over the plane's element width) walks every table's blocks × queries as one
// sequence on the calling goroutine, a window of gatherWindow rows at a time:
// it resolves the window's row numbers and hints all of them toward the
// cache, and only then reads and copies them.
//
// The reason is Little's law. A row that misses the cache costs ≈ 100 ns of
// DRAM latency however the loop is written; what the loop decides is how many
// of those 100 ns waits overlap. Hinting one row ahead keeps one fetch in
// flight (≈ 100 ns per lookup); hinting a window keeps as many in flight as
// the core has line-fill buffers (ten or so: ≈ 10 ns per lookup). That is the
// paper's channel parallelism — 32 HBM pseudo-channels serving one item's
// lookups at once — on the parallelism a CPU core has. The window counts
// rows, not queries or tables, so a batch of one keeps a whole item's lookups
// in flight and a batch of 64 is cut into window-sized runs.
//
// Besides its fetch a row costs an index read, a page walk and a move, none
// of which the paper's HBM channels pay. The index read: a query is one
// array of indices, table after table (embedding.Query's layout, checked by
// ValidateQuery), and a block reads its lookup's index at a fixed offset of
// that array. Read through the per-table slices instead, a production-large
// query is 98 slice headers (37 cache lines) in front of 13 lines of
// indices, and a batch of 64 is 150 KB of headers no row needs. The walk: a
// uniform lookup into hundreds of megabytes of tables lands on a page the
// TLB does not hold, and the core walks the page table before the fetch can
// start. In 4 KiB pages production-large's 363 MB of tables at the
// benchmark's cap are ≈ 89 000 translations; in the 2 MiB pages
// internal/offheap asks for they are ≈ 175, few enough for the TLB to keep.
// The move: a row is 8 to 256 bytes, and moveRows (rowmove.go) moves a
// block's run of rows as fixed-size values chosen once by the block's row
// length, where copy would call memmove once per row.

// gatherWindow is W, the number of row fetches the gather keeps in flight:
// row numbers are resolved and hinted W at a time before any of them is read.
// A constant, not a knob: chosen from the W × {PREFETCHNTA, PREFETCHT0} sweep
// recorded in CHANGES.md (PR 15). At 8 the fill buffers run dry between
// windows (≈ 25 % slower at batch 64); from 32 to 128 the time per lookup is
// flat with PREFETCHT0, at batch 1 and batch 64, on the small model and the
// large; 64 is the value in that range at which a full batch's block is
// exactly one window. (PREFETCHNTA is as good up to 32 and falls off a cliff
// after: see internal/kernels/prefetch.go.)
const gatherWindow = 64

// rowMod maps a validated logical index onto a table's materialised rows:
// idx % rows (capacity scaling — a table capped below its advertised row
// count wraps). It is the one definition of that mapping; every consumer of a
// row number goes through gatherBlock.resolve. A 64-bit divide per lookup is
// ≈ 25 cycles the gather has no use for, so the common cases avoid it: a
// table that is not capped needs no reduction at all, and one whose advertised
// row count fits 32 bits (so every validated index does) takes Lemire's
// reciprocal — two multiplies, exact for every 32-bit index and divisor.
type rowMod struct {
	rows  uint64
	magic uint64 // ⌈2⁶⁴ / rows⌉ mod 2⁶⁴, for rowReciprocal
	kind  rowModKind
}

type rowModKind uint8

const (
	rowIdentity   rowModKind = iota // not capped: idx < rows already
	rowReciprocal                   // idx < 2³²: multiply by the precomputed reciprocal
	rowDivide                       // anything larger: the divide
)

// newRowMod picks the reduction for a table advertising specRows logical rows
// (the bound ValidateQuery enforces on idx) and holding rows of them.
func newRowMod(specRows, rows int64) rowMod {
	m := rowMod{rows: uint64(rows)}
	switch {
	case rows >= specRows:
		m.kind = rowIdentity
	case specRows <= 1<<32:
		m.kind = rowReciprocal
		m.magic = ^uint64(0)/m.rows + 1 // wraps to 0 for rows == 1, where every index maps to 0
	default:
		m.kind = rowDivide
	}
	return m
}

// reduce returns idx % rows for 0 <= idx < specRows.
//
//microrec:noalloc
func (m *rowMod) reduce(idx int64) int64 {
	switch m.kind {
	case rowIdentity:
		return idx
	case rowReciprocal:
		// The low 64 bits of magic*idx are the fraction idx/rows scaled to
		// 2⁶⁴; multiplying that fraction by rows and keeping the integer part
		// is the remainder.
		hi, _ := bits.Mul64(m.magic*uint64(idx), m.rows)
		return int64(hi)
	}
	return idx % int64(m.rows)
}

// gatherBlock is one source table at one lookup round. Its rows are the
// datapath's (fixedPath.tables or .tier).
type gatherBlock struct {
	// srcID indexes the spec's and the datapath's tables, and is the table's
	// key namespace in its tier stream.
	srcID int
	mod   rowMod
	dim   int // row length
	// off is the feature column this round of the source starts at.
	off      int
	vecBytes int // bytes one row takes: picks moveRows' case
	// at is this lookup's index in a query's one index array: the source's
	// offset there plus the round.
	at int
}

// indices returns a query's one index array, every table's indices in order
// (embedding.Query's layout): q[0]'s array, up to its capacity.
//
//microrec:noalloc
func indices(q embedding.Query) []int64 { return q[0][:cap(q[0])] }

// resolve writes the row number of each query's lookup in this block to
// rows[i].
//
//microrec:noalloc
func (blk *gatherBlock) resolve(queries []embedding.Query, rows []int64) {
	rows = rows[:len(queries)]
	mod, at := blk.mod, blk.at // copied out: rows could alias the block as far as the compiler knows
	for i, q := range queries {
		rows[i] = mod.reduce(indices(q)[at])
	}
}

// gatherPlan is the whole model's compiled gather schedule.
type gatherPlan struct {
	// tables[t] is table t's blocks, round by round.
	tables [][]gatherBlock
}

// gatherSeq is one batch's lookup sequence: every table's blocks in spec
// order, each block across the whole batch. The gather walks it twice, a
// window apart — once resolving and hinting rows, once reading them — with a
// cursor for each walk.
type gatherSeq struct {
	plan    *gatherPlan
	queries []embedding.Query
}

// gatherCursor is a position in a gatherSeq: block bi of table ti, from query
// qi on. The zero value is the start; ti == len(plan.tables) is the end.
type gatherCursor struct{ ti, bi, qi int }

// next returns the block under the cursor and its next run of at most max
// queries [lo, hi), and moves the cursor past them. The cursor must not be at
// the end. (Every table has a block: a validated spec has no table without
// a lookup.)
//
//microrec:noalloc
func (s *gatherSeq) next(c *gatherCursor, max int) (blk *gatherBlock, lo, hi int) {
	blocks := s.plan.tables[c.ti]
	blk, lo = &blocks[c.bi], c.qi
	hi = min(lo+max, len(s.queries))
	c.qi = hi
	if hi == len(s.queries) {
		c.qi = 0
		if c.bi++; c.bi == len(blocks) {
			c.bi = 0
			c.ti++
		}
	}
	return blk, lo, hi
}

// compileGatherPlan builds the engine's gather plan from the spec and the
// parameters' table sizes: the source tables in spec order, each one's
// lookup rounds in order. Called once in Build.
func (e *Engine) compileGatherPlan() gatherPlan {
	n := len(e.spec.Tables)
	p := gatherPlan{tables: make([][]gatherBlock, n)}
	for t, ts := range e.spec.Tables {
		// Round r of a table lands r*dim columns past round 0.
		for r := 0; r < ts.Lookups; r++ {
			p.tables[t] = append(p.tables[t], gatherBlock{
				srcID:    t,
				mod:      newRowMod(ts.Rows, e.params.ActualRows[t]),
				dim:      ts.Dim,
				off:      e.featureOffset[t] + r*ts.Dim,
				vecBytes: ts.Dim * e.cfg.Precision.Bits / 8,
				at:       e.indexOffset[t] + r,
			})
		}
	}
	return p
}

// gatherBatchValidated is the hot gather path: one walk over every table on
// the calling goroutine, at every batch size. Queries must already
// have passed ValidateQuery; the loop performs no validation and no
// allocation.
//
//microrec:noalloc
func (e *Engine) gatherBatchValidated(queries []embedding.Query, s *BatchScratch) {
	// The scratch is reused, so zero the dense tail of every feature row;
	// the embedding region is fully overwritten by the table passes.
	e.dp.zeroDenseTail(len(queries), s)
	s.coldFaults = e.dp.gatherTables(&e.gplan, queries, s)
}

// ---- tiered backing store ----

// Tier returns the engine's tiered backing store, nil for an all-DRAM engine.
// Its Snapshot is what /stats reports, and its frequency window the hot-row
// counters.
func (e *Engine) Tier() *tieredstore.Store { return e.tier }

// PrefetchBatch touches the cold-tier pages a batch's gather will read.
// Nothing on the serving path calls it: a served batch reads each row once,
// in the gather. It stays because the repository benchmark's tracer wraps it
// (benchmark/ is its own module, which deadexport cannot see, so the
// analyzer is allowed on it);
// a pass that pays would have to run concurrently with real storage latency.
// Queries must already be validated; no-op for an all-DRAM engine. It walks
// the gather's blocks in the gather's order and leaves the store to skip the
// rows it holds hot.
//
//microrec:noalloc
func (e *Engine) PrefetchBatch(queries []embedding.Query) { //microrec:allow deadexport
	if e.tier == nil {
		return
	}
	for _, blocks := range e.gplan.tables {
		for bi := range blocks {
			blk := &blocks[bi]
			for _, q := range queries {
				e.tier.Prefetch(blk.srcID, blk.mod.reduce(indices(q)[blk.at]))
			}
		}
	}
}
