package core

import (
	"sort"
	"testing"

	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/hotcache"
	"microrec/internal/model"
)

// windowBatches are the batch sizes at the gather window's edges: a window
// packing several blocks (1, 2), one short of / exactly / one past a block
// per window, and a batch that cuts every block into three ragged windows.
var windowBatches = []int{1, 2, gatherWindow - 1, gatherWindow, gatherWindow + 1, 2*gatherWindow + 3}

// serialWalk replays a gather's lookups the obvious way — table by table,
// block by block, query by query, one row at a time with a plain remainder —
// recording each against ref and counting the rows the tier would serve cold.
// It is what the windowed gather must be indistinguishable from, to the
// cache, the tier and the flight recorder.
func serialWalk(e *Engine, queries []embedding.Query, ref *hotcache.Live) (lookups, cold int64) {
	for ti := range e.gplan.tables {
		for bi := range e.gplan.tables[ti] {
			blk := &e.gplan.tables[ti][bi]
			for _, q := range queries {
				row := q[blk.srcID][blk.round] % int64(blk.mod.rows)
				ref.Lookup(blk.cacheID, row, blk.vecBytes)
				lookups++
				if e.tier != nil && !e.tier.Stream(blk.cacheID).IsHot(row) {
					cold++
				}
			}
		}
	}
	return lookups, cold
}

// TestGatherWindowKeepsSerialOrder pins what the two-pass gather promises
// besides the bits (which TestGatherBatchMatchesGather covers): the hot-row
// cache sees the same lookups in the same order as a serial walk, at every
// batch size. The cache holds far fewer rows than the walk reads, so it
// evicts, and its counters depend on the order of every lookup. Both widths.
func TestGatherWindowKeepsSerialOrder(t *testing.T) {
	spec := model.SmallProduction()
	const cacheBytes = 1 << 12
	for _, tc := range []struct {
		name      string
		precision fixedpoint.Format
	}{
		{"fp16", SmallFP16().Precision},
		{"fp32", SmallFP32().Precision},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ConfigFor(spec.Name, tc.precision)
			cfg.HotCacheBytes = cacheBytes
			e := buildEngine(t, spec, cfg, true)
			ref, err := hotcache.NewLive(cacheBytes, 0)
			if err != nil {
				t.Fatal(err)
			}
			var scratch BatchScratch
			for _, b := range windowBatches {
				qs := randomQueries(spec, b, int64(7*b))
				if _, err := e.GatherBatch(qs, &scratch); err != nil {
					t.Fatal(err)
				}
				serialWalk(e, qs, ref)
				if got, want := e.cache.Stats(), ref.Stats(); got != want {
					t.Fatalf("b=%d: cache after the gather %+v, after a serial walk %+v", b, got, want)
				}
			}
			if st := ref.Stats(); st.Hits == 0 || st.Misses == 0 {
				t.Fatalf("walk exercised only one outcome: %+v", st)
			}
		})
	}
}

// TestGatherWindowTierCounters is the same promise for a tiered engine: the
// batch's cold-fault count, the tier's hot and cold read counters and the
// cache counters equal a serial walk's, with part of every stream pinned hot.
func TestGatherWindowTierCounters(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, tierTestConfig(-1), true)
	defer e.Close()
	store := e.TierStore()
	for id := 0; id < store.Streams(); id++ {
		var hot []int64
		for r := int64(0); r < store.Stream(id).Rows(); r += 3 {
			hot = append(hot, r)
		}
		store.SetPlacement(id, hot)
	}
	ref, err := hotcache.NewLive(e.cache.CapacityBytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var scratch BatchScratch
	for _, b := range windowBatches {
		qs := randomQueries(spec, b, int64(11*b))
		before, _ := e.Tier()
		if _, err := e.GatherBatch(qs, &scratch); err != nil {
			t.Fatal(err)
		}
		after, _ := e.Tier()
		lookups, cold := serialWalk(e, qs, ref)
		if cold == 0 || cold == lookups {
			t.Fatalf("b=%d: walk saw %d cold of %d lookups; want a mix", b, cold, lookups)
		}
		if got := scratch.GatherObs().ColdFaults; got != cold {
			t.Errorf("b=%d: gather reports %d cold faults, serial walk %d", b, got, cold)
		}
		if got := after.ColdReads - before.ColdReads; got != cold {
			t.Errorf("b=%d: tier counted %d cold reads, serial walk %d", b, got, cold)
		}
		if got := after.HotReads - before.HotReads; got != lookups-cold {
			t.Errorf("b=%d: tier counted %d hot reads, serial walk %d", b, got, lookups-cold)
		}
		if got, want := e.cache.Stats(), ref.Stats(); got != want {
			t.Errorf("b=%d: cache after the gather %+v, after a serial walk %+v", b, got, want)
		}
	}
}

// TestPrefetchBatchNamesTheGathersRows checks the plane-fill prefetch and the
// gather agree on which rows a batch reads: on an all-cold tiered engine the
// (stream, row) pairs PrefetchBatch would touch are exactly the keys the
// gather then records against the hot-row cache, one per lookup.
func TestPrefetchBatchNamesTheGathersRows(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, tierTestConfig(-1), true)
	defer e.Close()
	qs := randomQueries(spec, gatherWindow+1, 29)

	refs := e.coldRows(qs)
	if want := len(qs) * spec.NumLookups(); len(refs) != want {
		t.Fatalf("prefetch names %d rows for %d lookups", len(refs), want)
	}
	if _, err := e.GatherBatch(qs, nil); err != nil {
		t.Fatal(err)
	}
	var gathered []rowRef
	e.cache.ForEachEntry(func(id int, row int64, bytes int, hits int64) {
		gathered = append(gathered, rowRef{id, row})
	})
	byKey := func(s []rowRef) func(a, b int) bool {
		return func(a, b int) bool {
			if s[a].id != s[b].id {
				return s[a].id < s[b].id
			}
			return s[a].row < s[b].row
		}
	}
	sort.Slice(refs, byKey(refs))
	distinct := refs[:0]
	for i, r := range refs {
		if i == 0 || r != refs[i-1] {
			distinct = append(distinct, r)
		}
	}
	sort.Slice(gathered, byKey(gathered))
	if len(distinct) != len(gathered) {
		t.Fatalf("prefetch names %d distinct rows, the gather read %d", len(distinct), len(gathered))
	}
	for i := range distinct {
		if distinct[i] != gathered[i] {
			t.Fatalf("row %d: prefetch names %+v, the gather read %+v", i, distinct[i], gathered[i])
		}
	}
}
