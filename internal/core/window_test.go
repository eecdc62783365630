package core

import (
	"fmt"
	"sort"
	"testing"

	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/hotcache"
	"microrec/internal/model"
	"microrec/internal/tieredstore"
)

// windowBatches are the batch sizes at the gather window's edges: a window
// packing several blocks (1, 2), one short of / exactly / one past a block
// per window, and a batch that cuts every block into three ragged windows.
var windowBatches = []int{1, 2, gatherWindow - 1, gatherWindow, gatherWindow + 1, 2*gatherWindow + 3}

// serialWalk replays a gather's lookups the obvious way — table by table,
// block by block, query by query, one row at a time with a plain remainder —
// recording each against ref and counting the rows the tier would serve cold.
// It is what the windowed gather must be indistinguishable from, to the
// tier's frequency window, its read counters and the flight recorder.
func serialWalk(e *Engine, queries []embedding.Query, ref *hotcache.Live) (lookups, cold int64) {
	for ti := range e.gplan.tables {
		for bi := range e.gplan.tables[ti] {
			blk := &e.gplan.tables[ti][bi]
			for _, q := range queries {
				row := q[blk.srcID][bi] % int64(blk.mod.rows) // block bi is round bi
				ref.Lookup(blk.srcID, row, blk.vecBytes)
				lookups++
				if !e.tier.Stream(blk.srcID).IsHot(row) {
					cold++
				}
			}
		}
	}
	return lookups, cold
}

// windowTestConfig is an all-cold tiered engine at the given width whose
// frequency window holds windowBytes.
func windowTestConfig(f fixedpoint.Format, windowBytes int64) Config {
	return Config{Precision: f, ColdTier: &tieredstore.Config{HotBytes: -1, SweepEvery: -1, WindowBytes: windowBytes}}
}

// TestGatherWindowKeepsSerialOrder pins what the two-pass gather promises
// besides the bits (which TestGatherBatchMatchesGather covers): the tier's
// frequency window sees the same reads in the same order as a serial walk,
// at every batch size. The window holds far fewer rows than the walk reads,
// so it evicts, and its counters depend on the order of every read. Both
// widths.
func TestGatherWindowKeepsSerialOrder(t *testing.T) {
	spec := model.SmallProduction()
	const windowBytes = 1 << 12
	for _, tc := range []struct {
		name      string
		precision fixedpoint.Format
	}{
		{"fp16", fixedpoint.Fixed16},
		{"fp32", fixedpoint.Fixed32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := buildEngine(t, spec, windowTestConfig(tc.precision, windowBytes))
			defer e.Close()
			ref, err := hotcache.NewLive(windowBytes, 0)
			if err != nil {
				t.Fatal(err)
			}
			var scratch BatchScratch
			for _, b := range windowBatches {
				qs := randomQueries(spec, b, int64(7*b))
				if err := gatherBatch(e, qs, &scratch); err != nil {
					t.Fatal(err)
				}
				serialWalk(e, qs, ref)
				if got, want := e.tier.Window().Stats(), ref.Stats(); got != want {
					t.Fatalf("b=%d: window after the gather %+v, after a serial walk %+v", b, got, want)
				}
			}
			if st := ref.Stats(); st.Hits == 0 || st.Misses == 0 {
				t.Fatalf("walk exercised only one outcome: %+v", st)
			}
		})
	}
}

// TestGatherWindowTierCounters is the same promise with part of every stream
// pinned hot: the batch's cold-fault count, the tier's hot and cold read
// counters and its frequency window equal a serial walk's.
func TestGatherWindowTierCounters(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, tierTestConfig(-1))
	defer e.Close()
	store := e.Tier()
	for id := 0; id < store.Streams(); id++ {
		var hot []int64
		for r := int64(0); r < e.params.ActualRows[id]; r += 3 {
			hot = append(hot, r)
		}
		store.SetPlacement(id, hot)
	}
	ref, err := hotcache.NewLive(store.Window().CapacityBytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var scratch BatchScratch
	for _, b := range windowBatches {
		qs := randomQueries(spec, b, int64(11*b))
		before := store.Snapshot()
		if err := gatherBatch(e, qs, &scratch); err != nil {
			t.Fatal(err)
		}
		after := store.Snapshot()
		lookups, cold := serialWalk(e, qs, ref)
		if cold == 0 || cold == lookups {
			t.Fatalf("b=%d: walk saw %d cold of %d lookups; want a mix", b, cold, lookups)
		}
		if got := scratch.ColdFaults(); got != cold {
			t.Errorf("b=%d: gather reports %d cold faults, serial walk %d", b, got, cold)
		}
		if got := after.ColdReads - before.ColdReads; got != cold {
			t.Errorf("b=%d: tier counted %d cold reads, serial walk %d", b, got, cold)
		}
		if got := after.HotReads - before.HotReads; got != lookups-cold {
			t.Errorf("b=%d: tier counted %d hot reads, serial walk %d", b, got, lookups-cold)
		}
		if got, want := store.Window().Stats(), ref.Stats(); got != want {
			t.Errorf("b=%d: window after the gather %+v, after a serial walk %+v", b, got, want)
		}
	}
}

// TestColdFaultsArePerGather checks the cold-fault count a scratch reports
// belongs to its most recent gather alone: on a tiered engine of either width
// a gather with every row cold faults once per lookup, one with every row
// pinned reports none, and a cold gather on the same scratch after that
// reports the full count again, not a sum. An all-DRAM engine never faults.
func TestColdFaultsArePerGather(t *testing.T) {
	spec := model.SmallProduction()
	t.Run("dram", func(t *testing.T) {
		e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
		var scratch BatchScratch
		if err := gatherBatch(e, randomQueries(spec, 16, 1), &scratch); err != nil {
			t.Fatal(err)
		}
		if got := scratch.ColdFaults(); got != 0 {
			t.Fatalf("all-DRAM gather reports %d cold faults", got)
		}
	})
	for _, tc := range []struct {
		name string
		f    fixedpoint.Format
	}{{"fixed16", fixedpoint.Fixed16}, {"fixed32", fixedpoint.Fixed32}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tierTestConfig(-1)
			cfg.Precision = tc.f
			e := buildEngine(t, spec, cfg)
			defer e.Close()
			store := e.Tier()
			pin := func(all bool) {
				for id := 0; id < store.Streams(); id++ {
					var rows []int64
					for r := int64(0); all && r < e.params.ActualRows[id]; r++ {
						rows = append(rows, r)
					}
					store.SetPlacement(id, rows)
				}
			}
			for _, b := range []int{1, gatherWindow + 1, 2*gatherWindow + 3} {
				t.Run(fmt.Sprintf("b=%d", b), func(t *testing.T) {
					qs := randomQueries(spec, b, int64(b))
					lookups := int64(b * spec.NumLookups())
					var scratch BatchScratch
					for _, step := range []struct {
						hot  bool
						want int64
					}{{false, lookups}, {true, 0}, {false, lookups}} {
						pin(step.hot)
						if err := gatherBatch(e, qs, &scratch); err != nil {
							t.Fatal(err)
						}
						if got := scratch.ColdFaults(); got != step.want {
							t.Fatalf("all hot=%v: gather reports %d cold faults, want %d", step.hot, got, step.want)
						}
					}
				})
			}
		})
	}
}

// TestPrefetchBatchNamesTheGathersRows checks PrefetchBatch and the
// gather agree on which rows a batch reads. On an all-cold tiered engine the
// prefetch touches one row per lookup; once every row the gather left in the
// tier's frequency window is pinned it touches none, so every row it names is
// one the gather read; and with one window entry per stream unpinned again it
// touches each of those as often as the gather read it (the entry's hits plus
// its first miss).
func TestPrefetchBatchNamesTheGathersRows(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, tierTestConfig(-1))
	defer e.Close()
	store := e.Tier()
	qs := randomQueries(spec, gatherWindow+1, 29)
	prefetched := func() int64 {
		before := store.Snapshot().Prefetches
		e.PrefetchBatch(qs)
		return store.Snapshot().Prefetches - before
	}

	if got, want := prefetched(), int64(len(qs)*spec.NumLookups()); got != want {
		t.Fatalf("prefetch touched %d rows for %d lookups", got, want)
	}
	if err := gatherBatch(e, qs, &BatchScratch{}); err != nil {
		t.Fatal(err)
	}
	if w := store.Window().Stats(); w.Hits+w.Misses != int64(len(qs)*spec.NumLookups()) || w.Misses != int64(w.Entries) {
		t.Fatalf("window %+v: want one lookup per read and no eviction", w)
	}
	type entry struct {
		row   int64
		reads int64
	}
	entries := make([][]entry, store.Streams())
	store.Window().ForEachEntry(func(id int, row int64, bytes int, hits int64) {
		entries[id] = append(entries[id], entry{row, hits + 1})
	})
	pin := func(id int, es []entry) {
		rows := make([]int64, len(es))
		for i, en := range es {
			rows[i] = en.row
		}
		store.SetPlacement(id, rows)
	}
	for id, es := range entries {
		pin(id, es)
	}
	if got := prefetched(); got != 0 {
		t.Fatalf("with every window entry pinned the prefetch touched %d rows", got)
	}
	var want int64
	for id, es := range entries {
		sort.Slice(es, func(a, b int) bool { return es[a].row < es[b].row })
		pin(id, es[1:])
		want += es[0].reads
	}
	if got := prefetched(); got != want {
		t.Fatalf("with one window entry per stream cold the prefetch touched %d rows, the gather read them %d times", got, want)
	}
}
