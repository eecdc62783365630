package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"microrec/internal/embedding"
	"microrec/internal/kernels"
	"microrec/internal/memsim"
	"microrec/internal/tieredstore"
)

// This file implements the batched gather datapath: a gather plan compiled
// once at Build (per-physical-table feature offsets, materialised-product
// index scalers, channel-group shards) feeding GatherBatch, which resolves a
// whole micro-batch's lookups table-major — one pass per physical table
// across all queries — and quantizes each embedding vector directly into the
// fixed-point batch buffer (the row loop itself is fixedPath.gatherTables in
// plane.go, generic over the plane's element width). That eliminates the per-query float feature
// vector of the original Gather→quantize pipeline and every per-call
// allocation in the hot loop.
//
// Sharding mirrors the hardware: the placement plan assigns physical tables
// to HBM/DDR/on-chip banks that operate in parallel; the plan's bank ("HBM
// channel") groups are balanced into at most maxGatherShards goroutine
// shards. Tables write disjoint feature columns, so shards need no locks.

// gatherParallelMinBatch is the batch size below which GatherBatch stays on
// the calling goroutine: for small batches the per-shard spawn overhead
// exceeds the gather work (which is ~1 µs/query on the small model). The
// inline path is also strictly allocation-free, which the steady-state
// zero-alloc test relies on.
const gatherParallelMinBatch = 32

// maxGatherShards caps the goroutines one GatherBatch call fans out to.
const maxGatherShards = 8

// gatherSource is one source table's slot inside a physical table.
type gatherSource struct {
	srcID int // index into the query / spec tables
	dim   int
	// lookups is the per-inference lookup count (mirrors the physical
	// table's; kept here so the virtual path needs no parent access).
	lookups int
	// actualRows is the materialised row count: a validated logical index
	// maps onto storage as idx % actualRows (capacity scaling).
	actualRows int64
	// stride is the source's mixed-radix multiplier inside the
	// materialised product's row index (1 for the last source). Unused on
	// the virtual path.
	stride int64
	// featOff is where this source's lookup round 0 starts in the
	// concatenated feature vector; round r adds r*dim.
	featOff int
	// data is the source table's row-major storage for the virtual path
	// (nil when the physical table is materialised).
	data []float32
	// vecBytes is the byte size of one access on the virtual path.
	vecBytes int
	// cacheID is the hot-row cache's key namespace for this access stream.
	cacheID int
	// tier, when non-nil, resolves this stream's rows through the tiered
	// store instead of data (virtual path of a tiered engine).
	tier *tieredstore.Stream
}

// gatherTable is one physical table's compiled lookup recipe.
type gatherTable struct {
	lookups  int
	vecBytes int       // bytes moved by one materialised access
	dim      int64     // materialised row length (sum of source dims)
	mat      []float32 // materialised product rows; nil => virtual path
	cacheID  int       // cache key namespace of the materialised stream
	// tier, when non-nil, resolves the materialised rows through the tiered
	// store instead of mat.
	tier *tieredstore.Stream
	srcs []gatherSource
}

// gatherPlan is the whole model's compiled gather schedule.
type gatherPlan struct {
	tables []gatherTable
	// shards groups physical-table indices by the placement plan's memory
	// banks, balanced over at most maxGatherShards goroutines.
	shards [][]int
	// hitScale is the modeled on-chip/DRAM per-access latency ratio: a
	// hot-row cache hit costs hitScale of a DRAM access, so the effective
	// lookup latency is pipelineNS*(1 - hitRate*(1-hitScale)).
	hitScale float64
	// accessesPerItem is the total embedding-row accesses one inference
	// performs across every stream — the multiplier the tiered store's
	// per-access cold penalty scales by.
	accessesPerItem float64
}

// compileGatherPlan builds the engine's gather plan from the placement plan,
// the embedding store and the materialised products. Called once in Build.
func (e *Engine) compileGatherPlan() (gatherPlan, error) {
	layout := e.plan.Layout
	p := gatherPlan{tables: make([]gatherTable, len(layout.Tables))}
	cacheID := 0
	var accBytes, accCount float64
	for pi, pt := range layout.Tables {
		gt := gatherTable{
			lookups:  pt.Lookups(),
			vecBytes: pt.VectorBytes(),
			dim:      int64(pt.Dim()),
			srcs:     make([]gatherSource, len(pt.Sources)),
		}
		for i, src := range pt.Sources {
			tab, err := e.store.Table(src.ID)
			if err != nil {
				return gatherPlan{}, err
			}
			gt.srcs[i] = gatherSource{
				srcID:      src.ID,
				dim:        src.Dim,
				lookups:    src.Lookups,
				actualRows: tab.Rows(),
				featOff:    e.featureOffset[src.ID],
				vecBytes:   src.Dim * 4,
			}
		}
		if m := e.products[pi]; m != nil {
			gt.mat = m.Data
			gt.cacheID = cacheID
			cacheID++
			// Mixed-radix strides over the materialised source row
			// counts: the first source varies slowest.
			stride := int64(1)
			for i := len(gt.srcs) - 1; i >= 0; i-- {
				gt.srcs[i].stride = stride
				stride *= gt.srcs[i].actualRows
			}
			accBytes += float64(gt.lookups * gt.vecBytes)
			accCount += float64(gt.lookups)
		} else {
			for i := range gt.srcs {
				s := &gt.srcs[i]
				tab, err := e.store.Table(s.srcID)
				if err != nil {
					return gatherPlan{}, err
				}
				s.data = tab.Data()
				s.cacheID = cacheID
				cacheID++
				accBytes += float64(s.lookups * s.vecBytes)
				accCount += float64(s.lookups)
			}
		}
		p.tables[pi] = gt
	}
	meanBytes := 0
	if accCount > 0 {
		meanBytes = int(accBytes / accCount)
	}
	p.hitScale = memsim.OnChipTiming.AccessNS(meanBytes) / memsim.HBMTiming.AccessNS(meanBytes)
	p.accessesPerItem = accCount
	p.shards = e.shardByChannelGroup()
	return p, nil
}

// attachTier opens the tiered backing store over every compiled access
// stream and points the gather plan's row resolution at it. Called from
// Build after compileGatherPlan when Config.ColdTier is set. The stream IDs
// are the plan's cacheIDs, which compileGatherPlan assigns densely in table
// order, so the spec list is already ID-sorted.
func (e *Engine) attachTier() error {
	var specs []tieredstore.StreamSpec
	for ti := range e.gplan.tables {
		gt := &e.gplan.tables[ti]
		if gt.mat != nil {
			specs = append(specs, tieredstore.StreamSpec{
				ID: gt.cacheID, Data: gt.mat, Dim: int(gt.dim), Lookups: gt.lookups,
			})
			continue
		}
		for si := range gt.srcs {
			s := &gt.srcs[si]
			specs = append(specs, tieredstore.StreamSpec{
				ID: s.cacheID, Data: s.data, Dim: s.dim, Lookups: s.lookups,
			})
		}
	}
	store, err := tieredstore.Open(*e.cfg.ColdTier, specs)
	if err != nil {
		return err
	}
	for ti := range e.gplan.tables {
		gt := &e.gplan.tables[ti]
		if gt.mat != nil {
			gt.tier = store.Stream(gt.cacheID)
			continue
		}
		for si := range gt.srcs {
			s := &gt.srcs[si]
			s.tier = store.Stream(s.cacheID)
		}
	}
	e.tier = store
	return nil
}

// shardByChannelGroup groups physical tables by their assigned memory bank
// and balances the bank groups over at most maxGatherShards shards by
// estimated per-bank access cost (longest-processing-time greedy) — the
// software analogue of the paper's parallel HBM channels.
func (e *Engine) shardByChannelGroup() [][]int {
	layout := e.plan.Layout
	byBank := make(map[int][]int)
	for ti := range layout.Tables {
		b := e.plan.BankOf[ti]
		byBank[b] = append(byBank[b], ti)
	}
	type group struct {
		tables []int
		cost   float64
	}
	groups := make([]group, 0, len(byBank))
	for b, tables := range byBank {
		g := group{tables: tables}
		for _, ti := range tables {
			pt := layout.Tables[ti]
			g.cost += float64(pt.Lookups()) * e.plan.System.Banks[b].Timing.AccessNS(pt.VectorBytes())
		}
		groups = append(groups, g)
	}
	// Deterministic order: largest cost first, ties by first table index.
	sort.SliceStable(groups, func(a, b int) bool {
		if groups[a].cost != groups[b].cost {
			return groups[a].cost > groups[b].cost
		}
		return groups[a].tables[0] < groups[b].tables[0]
	})
	n := maxGatherShards
	if p := runtime.GOMAXPROCS(0); p < n {
		n = p
	}
	if len(groups) < n {
		n = len(groups)
	}
	if n < 1 {
		n = 1
	}
	shards := make([][]int, n)
	costs := make([]float64, n)
	for _, g := range groups {
		best := 0
		for i := 1; i < n; i++ {
			if costs[i] < costs[best] {
				best = i
			}
		}
		shards[best] = append(shards[best], g.tables...)
		costs[best] += g.cost
	}
	// Drop empty shards (possible when there are fewer groups than n), and
	// put each survivor in memory-locality order: bank-grouped, index-sorted,
	// so a shard goroutine streams one bank's address range at a time.
	out := shards[:0]
	for _, s := range shards {
		if len(s) > 0 {
			out = append(out, e.plan.LocalityOrder(s))
		}
	}
	return out
}

// GatherShards reports how many parallel channel-group shards the compiled
// gather plan uses.
func (e *Engine) GatherShards() int { return len(e.gplan.shards) }

// GatherBatch resolves a whole micro-batch's embedding lookups table-major —
// one pass per physical table across all queries, sharded across goroutines
// by the placement plan's channel groups for batches of at least
// gatherParallelMinBatch — quantizing every vector directly into the
// scratch's fixed-point feature rows. It returns a view of the quantized
// feature matrix backed by the scratch (valid until the scratch's next use):
// feats.At(qi, k) for k below the model's feature length, the dense tail
// zeroed. The values are bit-identical to quantizing Gather's float output.
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

// gatherBatchValidated is the hot gather path. Queries must already have
// passed ValidateQuery; the loop performs no validation and no allocation.
func (e *Engine) gatherBatchValidated(queries []embedding.Query, s *BatchScratch) {
	b := len(queries)
	s.coldFaults.Store(0)
	// The scratch is reused, so zero the dense tail of every feature row;
	// the embedding region is fully overwritten by the table passes.
	e.ZeroDenseTail(b, s)
	if b < gatherParallelMinBatch || len(e.gplan.shards) <= 1 {
		for _, shard := range e.gplan.shards {
			e.dp.gatherTables(&e.gplan, shard, queries, s, e.cache)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(len(e.gplan.shards))
		for _, shard := range e.gplan.shards {
			go e.gatherShard(&wg, shard, queries, s)
		}
		wg.Wait()
	}
	s.obs = GatherObs{ColdFaults: s.coldFaults.Load()}
}

func (e *Engine) gatherShard(wg *sync.WaitGroup, tables []int, queries []embedding.Query, s *BatchScratch) {
	defer wg.Done()
	e.dp.gatherTables(&e.gplan, tables, queries, s, e.cache)
}

// matRow resolves one query's materialised-product row index for lookup
// round r: the mixed-radix combination of the per-source logical indices.
//
//microrec:noalloc
func (gt *gatherTable) matRow(q embedding.Query, r int) int64 {
	var row int64
	for si := range gt.srcs {
		src := &gt.srcs[si]
		row += (q[src.srcID][r] % src.actualRows) * src.stride
	}
	return row
}

// prefetchMatRow hints the storage of one materialised row toward the cache
// ahead of its gather: the DRAM copy directly, or the tiered store's backing
// copy for a tiered engine (which skips rows already pinned hot).
//
//microrec:noalloc
func (gt *gatherTable) prefetchMatRow(row int64) {
	if gt.tier != nil {
		gt.tier.PrefetchRow(row)
		return
	}
	kernels.PrefetchNT(gt.mat[row*gt.dim : row*gt.dim+gt.dim])
}

// prefetchRow is prefetchMatRow for a virtual (single-source) stream.
//
//microrec:noalloc
func (src *gatherSource) prefetchRow(row, dim int64) {
	if src.tier != nil {
		src.tier.PrefetchRow(row)
		return
	}
	kernels.PrefetchNT(src.data[row*dim : row*dim+dim])
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
	// EffectiveLookupNS is the modeled per-inference lookup latency at the
	// current hit rate (LookupNS when the cache is cold or idle).
	EffectiveLookupNS float64
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
	hr := st.HitRate()
	return HotCacheInfo{
		CapacityBytes:     e.cache.CapacityBytes(),
		UsedBytes:         st.UsedBytes,
		Entries:           st.Entries,
		Hits:              st.Hits,
		Misses:            st.Misses,
		HitRate:           hr,
		EffectiveLookupNS: e.effectiveLookupNS(hr),
	}, true
}

func (e *Engine) effectiveLookupNS(hitRate float64) float64 {
	return e.pipelineNS * (1 - hitRate*(1-e.gplan.hitScale))
}

// HotCacheHitRate returns the live cache's current hit rate, aggregated
// coherently under the cache's shard locks — read once per batch by the
// serving tier, which is cheap next to the gather itself; ok is false when
// no cache is attached.
func (e *Engine) HotCacheHitRate() (rate float64, ok bool) {
	if e.cache == nil {
		return 0, false
	}
	return e.cache.HitRate(), true
}

// EffectiveLookupNS returns the modeled per-inference embedding-lookup
// latency at the live hot-row cache's current hit rate: a hit costs the
// on-chip fraction of a DRAM access, so the plan latency shrinks as the
// cache warms. Without a cache or cold tier it equals LookupNS.
//
// With a tiered store attached, the observed cold-read fraction adds a
// tier-weighted penalty: accessesPerItem * (1 - cacheHitRate) *
// coldReadRate * coldLatencyNS. The on-chip cache fronts the tier, so only
// cache misses pay a backing-store access; treating the two rates as
// independent is an approximation that underestimates correlation between
// cache-missing and cold rows (both are tail rows), which the conservative
// admission bound (LookupNS) covers.
func (e *Engine) EffectiveLookupNS() float64 {
	hr := 0.0
	if e.cache != nil {
		hr = e.cache.HitRate()
	}
	ns := e.effectiveLookupNS(hr)
	if e.tier != nil {
		ns += e.gplan.accessesPerItem * (1 - hr) * e.tier.ColdReadRate() * e.tier.ColdLatencyNS()
	}
	return ns
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

// TierBoundNS returns the residency-weighted per-inference cold-tier
// latency bound (0 for an all-DRAM engine). See tieredstore.Store.BoundNS.
func (e *Engine) TierBoundNS() float64 {
	if e.tier == nil {
		return 0
	}
	return e.tier.BoundNS()
}

// PrefetchBatch touches the cold-tier pages a batch's gather will read,
// fanning the page faults over a few goroutines. The serving tier calls it
// from the pipeline's gather-stage Prepare hook, so a cold row's fault is
// absorbed while filling that plane only — the other in-flight planes'
// compute stages keep draining. Queries must already be validated; no-op
// for an all-DRAM engine.
func (e *Engine) PrefetchBatch(queries []embedding.Query) {
	if e.tier == nil || len(queries) == 0 {
		return
	}
	type ref struct {
		id  int
		row int64
	}
	var cold []ref
	for ti := range e.gplan.tables {
		gt := &e.gplan.tables[ti]
		if gt.mat != nil {
			for r := 0; r < gt.lookups; r++ {
				for _, q := range queries {
					row := gt.matRow(q, r)
					if !gt.tier.IsHot(row) {
						cold = append(cold, ref{gt.cacheID, row})
					}
				}
			}
			continue
		}
		for si := range gt.srcs {
			src := &gt.srcs[si]
			for r := 0; r < src.lookups; r++ {
				for _, q := range queries {
					mrow := q[src.srcID][r] % src.actualRows
					if !src.tier.IsHot(mrow) {
						cold = append(cold, ref{src.cacheID, mrow})
					}
				}
			}
		}
	}
	if len(cold) == 0 {
		return
	}
	workers := 4
	if len(cold) < 64 {
		workers = 1
	}
	chunk := (len(cold) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(cold); lo += chunk {
		hi := lo + chunk
		if hi > len(cold) {
			hi = len(cold)
		}
		wg.Add(1)
		go func(refs []ref) {
			defer wg.Done()
			for _, c := range refs {
				e.tier.Prefetch(c.id, c.row)
			}
		}(cold[lo:hi])
	}
	wg.Wait()
}
