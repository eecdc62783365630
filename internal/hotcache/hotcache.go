// Package hotcache implements an extension the paper positions as
// complementary future work (§6, citing RecNMP's memory-side caching): an
// on-chip cache of frequently accessed embedding rows in front of the DRAM
// lookup path.
//
// Production embedding traffic is heavily skewed, so a small cache of hot
// rows absorbs a large share of random DRAM accesses. The package provides a
// byte-capacity LRU over (table, row) keys and a simulator that measures hit
// rates and the modeled effective lookup latency for a query stream.
package hotcache

import (
	"fmt"
	"math"
	"math/bits"

	"microrec/internal/embedding"
	"microrec/internal/model"
)

// maxCapacity bounds one Cache's byte capacity so that its slot numbers fit
// the int32 links and index buckets (see insert). A Live accepts this much
// per shard.
const maxCapacity = math.MaxInt32

// minBuckets is the index's starting size; it doubles as the cache fills.
const minBuckets = 16

// slot is one slab entry: a cached row and its recency links.
type slot struct {
	row int64
	// hits counts lookups that found this entry resident, since insertion.
	// The tiered store's placement sweep reads it as the row's access
	// frequency; ResetStats leaves it alone (it describes the entry, not a
	// measurement window).
	hits  int64
	table int
	bytes int32
	// prev and next link the recency list through slot numbers; a free slot
	// chains the free list through next.
	prev, next int32
}

// Cache is a byte-capacity LRU of embedding rows.
//
// It is laid out so that a lookup allocates nothing once the cache has
// filled. Entries live in a slab of slots linked into a doubly linked
// recency list by slot number; slot 0 is the list's sentinel (its next is
// the most recently used entry, its prev the least), and evicted slots are
// reused through a free list. A (table, row) key finds its slot through an
// open-addressing index with linear probing, at most half full; deletion
// shifts the rest of a probe run back instead of leaving tombstones. The
// slab and the index grow only while the cache fills.
type Cache struct {
	capacity int64
	used     int64
	hits     int64
	misses   int64
	entries  int
	slots    []slot
	free     int32 // first free slot, 0 when none
	// index holds slot numbers, 0 marking an empty bucket. Its length is a
	// power of two; a key's home bucket is the top log2(len) bits of its
	// hash, which shift selects.
	index []int32
	shift uint
}

// New creates a cache with the given byte capacity.
func New(capacityBytes int64) (*Cache, error) {
	if capacityBytes <= 0 || capacityBytes > maxCapacity {
		return nil, fmt.Errorf("hotcache: capacity %d outside [1, %d] bytes", capacityBytes, maxCapacity)
	}
	c := &Cache{capacity: capacityBytes, slots: make([]slot, 1)}
	c.rehash(minBuckets)
	return c, nil
}

// Lookup checks whether (table, row) is cached; on a miss the row is
// inserted (evicting least-recently-used rows as needed). bytes is the row's
// storage size. Returns true on a hit.
//
//microrec:noalloc
func (c *Cache) Lookup(table int, row int64, bytes int) bool {
	if bytes <= 0 || int64(bytes) > c.capacity {
		// Uncacheable row: count as a miss without perturbing the cache.
		c.misses++
		return false
	}
	if s := c.index[c.find(table, row)]; s != 0 {
		c.hits++
		c.slots[s].hits++
		c.unlink(s)
		c.pushFront(s)
		return true
	}
	c.misses++
	// Ends: bytes <= capacity, and an empty cache holds no bytes.
	for c.used+int64(bytes) > c.capacity {
		c.evict(c.slots[0].prev)
	}
	c.insert(table, row, int32(bytes))
	return false
}

// home is a key's first bucket. The hash multiplies by constants unrelated to
// Live.shardOf's and keeps the top bits, so the keys one shard receives do
// not cluster in its index.
func (c *Cache) home(table int, row int64) int {
	h := (uint64(row) ^ uint64(table)*0xFF51AFD7ED558CCD) * 0x9FB21C651E98DF25
	return int(h >> c.shift)
}

// find returns the bucket holding (table, row), or the empty bucket that
// ends its probe run.
func (c *Cache) find(table int, row int64) int {
	mask := len(c.index) - 1
	for i := c.home(table, row); ; i = (i + 1) & mask {
		s := c.index[i]
		if s == 0 || c.slots[s].row == row && c.slots[s].table == table {
			return i
		}
	}
}

// insert makes (table, row) the most recently used entry. The caller has
// checked it is absent and made room for its bytes.
func (c *Cache) insert(table int, row int64, bytes int32) {
	if 2*(c.entries+1) > len(c.index) {
		c.rehash(2 * len(c.index))
	}
	e := slot{row: row, table: table, bytes: bytes}
	s := c.free
	if s != 0 {
		c.free = c.slots[s].next
		c.slots[s] = e
	} else {
		// Only a filling cache gets here. Slot numbers stay within int32:
		// with no free slot, every slot but the sentinel holds a resident
		// row of at least one byte, so there are at most capacity of them.
		s = int32(len(c.slots))
		c.slots = append(c.slots, e)
	}
	c.index[c.find(table, row)] = s
	c.pushFront(s)
	c.used += int64(bytes)
	c.entries++
}

// evict removes resident slot s and frees it.
func (c *Cache) evict(s int32) {
	e := &c.slots[s]
	c.used -= int64(e.bytes)
	c.entries--
	c.deleteBucket(c.find(e.table, e.row))
	c.unlink(s)
	e.next = c.free
	c.free = s
}

// deleteBucket empties bucket i, moving later members of its probe run back
// so every key stays reachable from its home bucket.
func (c *Cache) deleteBucket(i int) {
	mask := len(c.index) - 1
	for j := (i + 1) & mask; c.index[j] != 0; j = (j + 1) & mask {
		s := c.index[j]
		// s may fill the hole unless its home lies cyclically in (i, j].
		if (j-c.home(c.slots[s].table, c.slots[s].row))&mask >= (j-i)&mask {
			c.index[i] = s
			i = j
		}
	}
	c.index[i] = 0
}

func (c *Cache) unlink(s int32) {
	e := &c.slots[s]
	c.slots[e.prev].next = e.next
	c.slots[e.next].prev = e.prev
}

func (c *Cache) pushFront(s int32) {
	head := c.slots[0].next
	c.slots[s].prev, c.slots[s].next = 0, head
	c.slots[head].prev = s
	c.slots[0].next = s
}

// rehash rebuilds the index with the given power-of-two bucket count.
func (c *Cache) rehash(buckets int) {
	c.index = make([]int32, buckets)
	c.shift = uint(64 - bits.TrailingZeros(uint(buckets)))
	for s := c.slots[0].next; s != 0; s = c.slots[s].next {
		c.index[c.find(c.slots[s].table, c.slots[s].row)] = s
	}
}

// ForEachEntry calls fn for every cached row, most- to least-recently used,
// with the entry's byte size and per-entry hit count. Callers must not touch
// the cache from fn.
func (c *Cache) ForEachEntry(fn func(table int, row int64, bytes int, hits int64)) {
	for s := c.slots[0].next; s != 0; s = c.slots[s].next {
		e := &c.slots[s]
		fn(e.table, e.row, int(e.bytes), e.hits)
	}
}

// Stats summarises cache behaviour.
type Stats struct {
	Hits, Misses int64
	UsedBytes    int64
	Entries      int
}

// Stats returns a snapshot.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, UsedBytes: c.used, Entries: c.entries}
}

// HitRate returns hits / (hits+misses), 0 when idle.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Reset clears counters but keeps cached contents (for warmup/measure
// protocols).
func (c *Cache) ResetStats() {
	c.hits, c.misses = 0, 0
}

// Result is the outcome of simulating a query stream against the cache.
type Result struct {
	Stats Stats
	// EffectiveAccessNS is the modeled per-access latency:
	// hitRate*hitNS + (1-hitRate)*missNS.
	EffectiveAccessNS float64
	// MissAccessNS and HitAccessNS echo the model inputs.
	HitAccessNS, MissAccessNS float64
}

// Simulate runs queries against a fresh cache for the given model, counting
// one access per table lookup. hitNS/missNS are the per-access latencies of
// the on-chip cache and the DRAM path. A warmup fraction of the stream
// populates the cache before counters start.
func Simulate(spec *model.Spec, queries []embedding.Query, capacityBytes int64, hitNS, missNS float64, warmup int) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if warmup < 0 || warmup >= len(queries) {
		return Result{}, fmt.Errorf("hotcache: warmup %d out of range for %d queries", warmup, len(queries))
	}
	if hitNS < 0 || missNS < hitNS {
		return Result{}, fmt.Errorf("hotcache: implausible latencies hit=%v miss=%v", hitNS, missNS)
	}
	c, err := New(capacityBytes)
	if err != nil {
		return Result{}, err
	}
	for qi, q := range queries {
		if qi == warmup {
			c.ResetStats()
		}
		if len(q) != len(spec.Tables) {
			return Result{}, fmt.Errorf("hotcache: query %d covers %d tables, model has %d", qi, len(q), len(spec.Tables))
		}
		for ti, idxs := range q {
			rowBytes := spec.Tables[ti].VectorBytes()
			for _, row := range idxs {
				c.Lookup(ti, row, rowBytes)
			}
		}
	}
	st := c.Stats()
	hr := st.HitRate()
	return Result{
		Stats:             st,
		EffectiveAccessNS: hr*hitNS + (1-hr)*missNS,
		HitAccessNS:       hitNS,
		MissAccessNS:      missNS,
	}, nil
}
