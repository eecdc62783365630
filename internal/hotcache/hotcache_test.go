package hotcache

import (
	"container/list"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"microrec/internal/embedding"
	"microrec/internal/model"
	"microrec/internal/workload"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("capacity 0: want error")
	}
	if _, err := New(-5); err == nil {
		t.Error("negative capacity: want error")
	}
}

func TestLookupHitMiss(t *testing.T) {
	c, err := New(1024)
	if err != nil {
		t.Fatal(err)
	}
	if c.Lookup(0, 1, 16) {
		t.Error("first access should miss")
	}
	if !c.Lookup(0, 1, 16) {
		t.Error("second access should hit")
	}
	if c.Lookup(1, 1, 16) {
		t.Error("different table should miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 || st.UsedBytes != 32 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(48) // room for 3 x 16B rows
	if err != nil {
		t.Fatal(err)
	}
	c.Lookup(0, 1, 16)
	c.Lookup(0, 2, 16)
	c.Lookup(0, 3, 16)
	// Touch row 1 so row 2 becomes the LRU victim.
	if !c.Lookup(0, 1, 16) {
		t.Fatal("row 1 should hit")
	}
	c.Lookup(0, 4, 16) // evicts row 2
	if c.Lookup(0, 2, 16) {
		t.Error("row 2 should have been evicted")
	}
	if !c.Lookup(0, 1, 16) {
		t.Error("row 1 should still be cached")
	}
	if got := c.Stats().UsedBytes; got > 48 {
		t.Errorf("used %d bytes > capacity", got)
	}
}

func TestOversizedRowUncacheable(t *testing.T) {
	c, err := New(32)
	if err != nil {
		t.Fatal(err)
	}
	if c.Lookup(0, 1, 64) {
		t.Error("oversized row should miss")
	}
	if c.Lookup(0, 1, 64) {
		t.Error("oversized row should keep missing (not inserted)")
	}
	if c.Stats().Entries != 0 {
		t.Error("oversized row was inserted")
	}
	if c.Lookup(0, 2, 0) {
		t.Error("zero-byte row should miss")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c, err := New(1024)
	if err != nil {
		t.Fatal(err)
	}
	c.Lookup(0, 1, 16)
	c.ResetStats()
	if !c.Lookup(0, 1, 16) {
		t.Error("contents lost on ResetStats")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
}

func TestSimulateZipfBeatsUniform(t *testing.T) {
	spec := model.SmallProduction()
	const n = 400
	mk := func(dist workload.Distribution) Result {
		g, err := workload.NewGenerator(spec, dist, 5)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := g.Batch(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(spec, qs, 4<<20, 110, 480, n/4)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	zipf := mk(workload.Zipf)
	uni := mk(workload.Uniform)
	if zipf.Stats.HitRate() <= uni.Stats.HitRate() {
		t.Errorf("zipf hit rate %.2f <= uniform %.2f — skew should help the cache",
			zipf.Stats.HitRate(), uni.Stats.HitRate())
	}
	if zipf.Stats.HitRate() < 0.5 {
		t.Errorf("zipf hit rate %.2f — expected a hot-head workload to mostly hit", zipf.Stats.HitRate())
	}
	if zipf.EffectiveAccessNS >= uni.EffectiveAccessNS {
		t.Error("zipf effective latency should beat uniform")
	}
	if zipf.EffectiveAccessNS < zipf.HitAccessNS || zipf.EffectiveAccessNS > zipf.MissAccessNS {
		t.Errorf("effective latency %.0f outside [hit, miss]", zipf.EffectiveAccessNS)
	}
}

func TestSimulateErrors(t *testing.T) {
	spec := model.SmallProduction()
	g, err := workload.NewGenerator(spec, workload.Uniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := g.Batch(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(spec, qs, 1024, 100, 400, 4); err == nil {
		t.Error("warmup == len: want error")
	}
	if _, err := Simulate(spec, qs, 1024, 400, 100, 0); err == nil {
		t.Error("miss faster than hit: want error")
	}
	if _, err := Simulate(spec, qs, 0, 100, 400, 0); err == nil {
		t.Error("zero capacity: want error")
	}
	bad := qs[0][:3]
	if _, err := Simulate(spec, []embedding.Query{bad}, 1024, 100, 400, 0); err == nil {
		t.Error("short query: want error")
	}
	if _, err := Simulate(&model.Spec{Name: "bad"}, qs, 1024, 100, 400, 0); err == nil {
		t.Error("invalid spec: want error")
	}
}

// Property: used bytes never exceed capacity, regardless of access pattern.
func TestCapacityInvariantProperty(t *testing.T) {
	prop := func(rows []uint8) bool {
		c, err := New(64)
		if err != nil {
			return false
		}
		for _, r := range rows {
			c.Lookup(int(r)%3, int64(r), int(r)%24+4)
			if c.Stats().UsedBytes > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: hit rate is always within [0, 1] and hits+misses equals accesses.
func TestStatsConsistencyProperty(t *testing.T) {
	prop := func(rows []uint16) bool {
		c, err := New(256)
		if err != nil {
			return false
		}
		for _, r := range rows {
			c.Lookup(0, int64(r%32), 16)
		}
		st := c.Stats()
		if st.Hits+st.Misses != int64(len(rows)) {
			return false
		}
		hr := st.HitRate()
		return hr >= 0 && hr <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewRejectsCapacityPastSlotRange(t *testing.T) {
	if _, err := New(maxCapacity); err != nil {
		t.Errorf("capacity %d: %v", int64(maxCapacity), err)
	}
	if _, err := New(maxCapacity + 1); err == nil {
		t.Errorf("capacity %d: want error (slot numbers are int32)", int64(maxCapacity)+1)
	}
}

// refLRU is the container/list LRU that Cache's slab layout replaced, kept
// as the reference TestCacheMatchesReferenceLRU compares against.
type refLRU struct {
	capacity, used int64
	hits, misses   int64
	ll             *list.List
	index          map[refKey]*list.Element
}

type refKey struct {
	table int
	row   int64
}

type refEntry struct {
	key   refKey
	bytes int
	hits  int64
}

func newRefLRU(capacity int64) *refLRU {
	return &refLRU{capacity: capacity, ll: list.New(), index: make(map[refKey]*list.Element)}
}

func (c *refLRU) Lookup(table int, row int64, bytes int) bool {
	if bytes <= 0 || int64(bytes) > c.capacity {
		c.misses++
		return false
	}
	k := refKey{table: table, row: row}
	if el, ok := c.index[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		el.Value.(*refEntry).hits++
		return true
	}
	c.misses++
	for c.used+int64(bytes) > c.capacity {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		ev := oldest.Value.(*refEntry)
		c.used -= int64(ev.bytes)
		delete(c.index, ev.key)
		c.ll.Remove(oldest)
	}
	c.index[k] = c.ll.PushFront(&refEntry{key: k, bytes: bytes})
	c.used += int64(bytes)
	return false
}

func (c *refLRU) ForEachEntry(fn func(table int, row int64, bytes int, hits int64)) {
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*refEntry)
		fn(e.key.table, e.key.row, e.bytes, e.hits)
	}
}

func (c *refLRU) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, UsedBytes: c.used, Entries: c.ll.Len()}
}

func (c *refLRU) ResetStats() { c.hits, c.misses = 0, 0 }

type entryRec struct {
	table int
	row   int64
	bytes int
	hits  int64
}

// entriesOf records what a ForEachEntry walk reports, in order.
func entriesOf(forEach func(func(table int, row int64, bytes int, hits int64))) []entryRec {
	var out []entryRec
	forEach(func(table int, row int64, bytes int, hits int64) {
		out = append(out, entryRec{table: table, row: row, bytes: bytes, hits: hits})
	})
	return out
}

// TestCacheMatchesReferenceLRU is the slab cache's equivalence proof by
// experiment: random streams must give the reference LRU's hit or miss on
// every call, its Stats after every call, and its MRU→LRU entry sequence
// with per-entry hits. Trials vary the capacity (down to one byte), the
// table count, row sizes (uncacheable 0 and > capacity included, and a key
// looked up again with a different size), uniform and heavy-head row draws,
// and a ResetStats mid-stream.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	const trials, ops = 200, 5000
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var capacity int64
		switch rng.Intn(4) {
		case 0:
			capacity = 1
		case 1:
			capacity = 1 + rng.Int63n(64)
		case 2:
			capacity = 1 + rng.Int63n(4096)
		default:
			capacity = 1 + rng.Int63n(1<<16)
		}
		tables := 1 + rng.Intn(5)
		rowSpace := 1 + rng.Int63n(2000)
		// Each table has a usual row size; a few calls use another.
		sizes := make([]int, tables)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(128)
		}
		var draw func() int64
		if rng.Intn(2) == 0 {
			draw = func() int64 { return rng.Int63n(rowSpace) }
		} else {
			z := rand.NewZipf(rng, 1.1, 1, uint64(rowSpace-1))
			draw = func() int64 { return int64(z.Uint64()) }
		}
		resetAt := rng.Intn(ops)

		got, err := New(capacity)
		if err != nil {
			t.Fatal(err)
		}
		want := newRefLRU(capacity)
		for op := 0; op < ops; op++ {
			if op == resetAt {
				got.ResetStats()
				want.ResetStats()
			}
			table, row := rng.Intn(tables), draw()
			bytes := sizes[table]
			switch r := rng.Intn(100); {
			case r == 0:
				bytes = 0
			case r == 1:
				bytes = int(capacity) + 1 + rng.Intn(8)
			case r < 5:
				bytes = 1 + rng.Intn(128)
			}
			if g, w := got.Lookup(table, row, bytes), want.Lookup(table, row, bytes); g != w {
				t.Fatalf("trial %d op %d: Lookup(%d, %d, %d) = %v, reference %v", trial, op, table, row, bytes, g, w)
			}
			if g, w := got.Stats(), want.Stats(); g != w {
				t.Fatalf("trial %d op %d: Stats %+v, reference %+v", trial, op, g, w)
			}
			if op%97 == 0 || op == ops-1 {
				if g, w := entriesOf(got.ForEachEntry), entriesOf(want.ForEachEntry); !reflect.DeepEqual(g, w) {
					t.Fatalf("trial %d op %d: ForEachEntry differs from the reference:\n got %v\nwant %v", trial, op, g, w)
				}
			}
		}
	}
}

// BenchmarkLookup drives a cycle of 47×4096 distinct 64-byte rows through
// 1 MiB of capacity, so every lookup misses and evicts — the cache's most
// expensive steady state. cache is the bare LRU; live adds the shard hash
// and an uncontended shard mutex; live-parallel runs the live cache from
// goroutines on 2 procs, so the lock's share shows under contention.
func BenchmarkLookup(b *testing.B) {
	b.Run("cache", func(b *testing.B) {
		c, err := New(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Lookup(i%47, int64(i%4096), 64)
		}
	})
	b.Run("live", func(b *testing.B) {
		l, err := NewLive(1<<20, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Lookup(i%47, int64(i%4096), 64)
		}
	})
	b.Run("live-parallel", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		l, err := NewLive(1<<20, 0)
		if err != nil {
			b.Fatal(err)
		}
		var start atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			// Goroutines start far apart in the key cycle.
			i := int(start.Add(1) * 7919)
			for pb.Next() {
				l.Lookup(i%47, int64(i%4096), 64)
				i++
			}
		})
	})
}
