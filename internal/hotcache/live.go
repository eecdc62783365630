package hotcache

import (
	"fmt"
	"sync"
)

// DefaultLiveShards is the shard count NewLive uses when the caller passes 0.
// Eight shards keep lock contention negligible for the goroutines that gather
// through one tiered store (a server's drain and its gather shards) while
// keeping the aggregate LRU close to a single global one.
const DefaultLiveShards = 8

// Live is a thread-safe hot-row cache over the real inference path: the
// tiered store (internal/tieredstore) keeps one as its frequency window.
// Where Simulate replays a recorded query stream offline, every row the
// store serves is recorded against a Live, and its counters are what /stats
// reports as the tier's hit rate.
//
// The cache is sharded by a hash of the (access stream, row) key, each shard
// a mutex-protected LRU holding an equal slice of the byte capacity, so one
// hot table spreads over every shard (using the full capacity) and
// concurrent lookups against the same table land on different locks. Hit and
// miss counts live in the per-shard caches and are only ever touched under
// the shard lock, so a snapshot reads each shard's (hits, misses) pair
// coherently — a reader can never observe a hit recorded without its lookup.
// (An earlier design kept cache-wide totals in atomics updated outside the
// locks; loading the two counters independently let a stats reader racing
// traffic see torn, mutually inconsistent pairs.)
type Live struct {
	shards   []liveShard
	capacity int64
}

type liveShard struct {
	mu sync.Mutex
	c  *Cache
	// pad rounds the shard to 64 bytes so neighbouring shard locks sit on
	// distinct cache lines.
	_ [48]byte
}

// NewLive creates a live cache with the given byte capacity split over
// `shards` LRU shards (DefaultLiveShards when 0). The shard count is clamped
// so every shard holds at least one byte of capacity.
func NewLive(capacityBytes int64, shards int) (*Live, error) {
	if capacityBytes <= 0 {
		return nil, fmt.Errorf("hotcache: capacity %d", capacityBytes)
	}
	if shards <= 0 {
		shards = DefaultLiveShards
	}
	if int64(shards) > capacityBytes {
		shards = int(capacityBytes)
	}
	l := &Live{shards: make([]liveShard, shards), capacity: capacityBytes}
	per := capacityBytes / int64(shards)
	rem := capacityBytes % int64(shards)
	for i := range l.shards {
		cap := per
		if int64(i) < rem {
			cap++
		}
		c, err := New(cap)
		if err != nil {
			return nil, fmt.Errorf("hotcache: capacity %d over %d shards: %w", capacityBytes, shards, err)
		}
		l.shards[i].c = c
	}
	return l, nil
}

// CapacityBytes returns the total configured capacity.
func (l *Live) CapacityBytes() int64 { return l.capacity }

// shardOf hashes the (stream, row) key onto a shard so one stream's rows
// spread over every shard (splitmix64-style mixing).
func (l *Live) shardOf(id int, row int64) *liveShard {
	h := uint64(id)*0x9E3779B97F4A7C15 + uint64(row)
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	return &l.shards[h%uint64(len(l.shards))]
}

// Lookup records one access of `bytes` bytes against row `row` of access
// stream `id`, inserting on miss (see Cache.Lookup). It is safe for
// concurrent use.
//
//microrec:noalloc
func (l *Live) Lookup(id int, row int64, bytes int) bool {
	s := l.shardOf(id, row)
	s.mu.Lock()
	hit := s.c.Lookup(id, row, bytes)
	s.mu.Unlock()
	return hit
}

// Stats aggregates a snapshot over all shards, one shard at a time under the
// shard lock, so every shard contributes a coherent (hits, misses,
// occupancy) triple. The cross-shard aggregate is still approximate under
// concurrent traffic, but it can no longer be torn: each shard's hits and
// misses were recorded by the same locked lookups.
func (l *Live) Stats() Stats {
	var agg Stats
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		st := s.c.Stats()
		s.mu.Unlock()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.UsedBytes += st.UsedBytes
		agg.Entries += st.Entries
	}
	return agg
}

// ForEachEntry enumerates every cached row with its per-entry hit count,
// shard by shard (each shard locked only while it is walked). The tiered
// store's placement sweep uses this as its row-frequency signal: residency
// in the LRU plus accumulated hits identify the rows worth pinning in the
// DRAM hot tier.
func (l *Live) ForEachEntry(fn func(id int, row int64, bytes int, hits int64)) {
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		s.c.ForEachEntry(fn)
		s.mu.Unlock()
	}
}
