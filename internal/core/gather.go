package core

import (
	"fmt"
	"math/bits"

	"microrec/internal/embedding"
	"microrec/internal/tieredstore"
)

// This file implements the batched gather datapath: a gather plan compiled
// once at Build feeding GatherBatch, which resolves a whole micro-batch's
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
	// srcID indexes the query, the spec's and the datapath's tables, and is
	// the table's key namespace in the hot-row cache and its tier stream.
	srcID int
	mod   rowMod
	dim   int // row length
	// off is the feature column this round of the source starts at.
	off      int
	vecBytes int // bytes one access moves
	round    int // which of the source's per-inference lookups this block is
}

// resolve writes the row number of each query's lookup in this block to
// rows[i].
//
//microrec:noalloc
func (blk *gatherBlock) resolve(queries []embedding.Query, rows []int64) {
	rows = rows[:len(queries)]
	mod, src, round := blk.mod, blk.srcID, blk.round // copied out: rows could alias the block as far as the compiler knows
	for i, q := range queries {
		rows[i] = mod.reduce(q[src][round])
	}
}

// gatherPlan is the whole model's compiled gather schedule.
type gatherPlan struct {
	// tables[t] is table t's blocks, round by round.
	tables [][]gatherBlock
	// all is every table's index, in spec order: the sequence a whole-batch
	// gather walks.
	all []int
}

// gatherSeq is the lookup sequence of some tables for one batch:
// their blocks in order, each block across the whole batch. The gather walks
// it twice, a window apart — once resolving and hinting rows, once reading
// them — with a cursor for each walk.
type gatherSeq struct {
	plan    *gatherPlan
	tables  []int
	queries []embedding.Query
}

// gatherCursor is a position in a gatherSeq: block bi of the sequence's ti-th
// table, from query qi on. The zero value is the start; ti == len(tables) is
// the end.
type gatherCursor struct{ ti, bi, qi int }

// next returns the block under the cursor and its next run of at most max
// queries [lo, hi), and moves the cursor past them. The cursor must not be at
// the end. (Every table has a block: a validated spec has no table without
// a lookup.)
//
//microrec:noalloc
func (s *gatherSeq) next(c *gatherCursor, max int) (blk *gatherBlock, lo, hi int) {
	blocks := s.plan.tables[s.tables[c.ti]]
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
	p := gatherPlan{tables: make([][]gatherBlock, n), all: make([]int, n)}
	for t, ts := range e.spec.Tables {
		p.all[t] = t
		// Round r of a table lands r*dim columns past round 0.
		for r := 0; r < ts.Lookups; r++ {
			p.tables[t] = append(p.tables[t], gatherBlock{
				srcID:    t,
				mod:      newRowMod(ts.Rows, e.params.ActualRows[t]),
				dim:      ts.Dim,
				off:      e.featureOffset[t] + r*ts.Dim,
				vecBytes: ts.Dim * e.cfg.Precision.Bits / 8,
				round:    r,
			})
		}
	}
	return p
}

// GatherBatch resolves a whole micro-batch's embedding lookups table-major —
// one pass per table across all queries, on the calling goroutine —
// copying every row, stored at the datapath's width, straight into the
// scratch's fixed-point feature rows. It returns a view of the feature matrix
// backed by the scratch (valid until the scratch's next use): feats.At(qi, k)
// for k below the model's feature length, the dense tail zeroed. The values
// are bit-identical to quantizing Gather's float output.
func (e *Engine) GatherBatch(queries []embedding.Query, scratch *BatchScratch) (feats Features, err error) {
	if len(queries) == 0 {
		return Features{}, fmt.Errorf("core: no queries")
	}
	if err := e.validateBatch(queries, 0); err != nil {
		return Features{}, err
	}
	if scratch == nil {
		scratch = &BatchScratch{}
	}
	e.dp.ensure(scratch, len(queries))
	e.gatherBatchValidated(queries, scratch)
	return e.dp.features(scratch), nil
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
	e.ZeroDenseTail(len(queries), s)
	s.obs = GatherObs{ColdFaults: e.dp.gatherTables(&e.gplan, e.gplan.all, queries, s, e.cache)}
}

// ---- live hot-row cache ----

// HotCacheInfo is a snapshot of the engine's live hot-row cache.
type HotCacheInfo struct {
	CapacityBytes int64
	UsedBytes     int64
	Entries       int
	Hits          int64
	Misses        int64
	// HitRate is Hits/(Hits+Misses), 0 when idle.
	HitRate float64
}

// HotCacheEnabled reports whether a live hot-row cache is attached
// (Config.HotCacheBytes > 0 at Build).
func (e *Engine) HotCacheEnabled() bool { return e.cache != nil }

// HotCache snapshots the live hot-row cache; ok is false when none is
// attached.
func (e *Engine) HotCache() (info HotCacheInfo, ok bool) {
	if e.cache == nil {
		return HotCacheInfo{}, false
	}
	st := e.cache.Stats()
	return HotCacheInfo{
		CapacityBytes: e.cache.CapacityBytes(),
		UsedBytes:     st.UsedBytes,
		Entries:       st.Entries,
		Hits:          st.Hits,
		Misses:        st.Misses,
		HitRate:       st.HitRate(),
	}, true
}

// ---- tiered backing store ----

// TierStore returns the engine's tiered backing store, nil when the engine
// is all-DRAM. The cluster tier uses it to register its per-shard caches as
// placement-harvest sources.
func (e *Engine) TierStore() *tieredstore.Store { return e.tier }

// Tier snapshots the tiered store; ok is false for an all-DRAM engine.
func (e *Engine) Tier() (tieredstore.Snapshot, bool) {
	if e.tier == nil {
		return tieredstore.Snapshot{}, false
	}
	return e.tier.Snapshot(), true
}

// PrefetchBatch touches the cold-tier pages a batch's gather will read. The
// serving tier calls it from the pipeline's gather-stage Prepare hook, so a
// cold row's fault is absorbed while filling that plane only — the other
// in-flight planes' compute stages keep draining. Queries must already be
// validated; no-op for an all-DRAM engine.
func (e *Engine) PrefetchBatch(queries []embedding.Query) {
	if e.tier == nil {
		return
	}
	for _, c := range e.coldRows(queries) {
		e.tier.Prefetch(c.id, c.row)
	}
}

// rowRef names one row of one access stream.
type rowRef struct {
	id  int
	row int64
}

// coldRows lists, in gather order, the (stream, row) pairs of a batch's
// lookups that the tiered store would serve from the cold file right now.
func (e *Engine) coldRows(queries []embedding.Query) []rowRef {
	var cold []rowRef
	rows := make([]int64, len(queries))
	for _, blocks := range e.gplan.tables {
		for bi := range blocks {
			blk := &blocks[bi]
			blk.resolve(queries, rows)
			st := e.tier.Stream(blk.srcID)
			for _, row := range rows {
				if !st.IsHot(row) {
					cold = append(cold, rowRef{blk.srcID, row})
				}
			}
		}
	}
	return cold
}
