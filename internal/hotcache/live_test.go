package hotcache

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewLiveValidation(t *testing.T) {
	if _, err := NewLive(0, 4); err == nil {
		t.Error("zero capacity: want error")
	}
	if _, err := NewLive(-5, 4); err == nil {
		t.Error("negative capacity: want error")
	}
	if _, err := NewLive(2*maxCapacity, 2); err != nil {
		t.Errorf("%d bytes over 2 shards: %v", 2*int64(maxCapacity), err)
	}
	if _, err := NewLive(2*maxCapacity+1, 2); err == nil {
		t.Error("a shard past the per-cache limit: want error")
	}
	l, err := NewLive(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.CapacityBytes(); got != 3 {
		t.Errorf("capacity %d, want 3", got)
	}
	// Shard count clamps so every shard holds at least one byte.
	if n := len(l.shards); n != 3 {
		t.Errorf("%d shards for 3 bytes, want 3", n)
	}
}

func TestLiveCapacitySplit(t *testing.T) {
	l, err := NewLive(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := range l.shards {
		total += l.shards[i].c.capacity
	}
	if total != 100 {
		t.Errorf("shard capacities sum to %d, want 100", total)
	}
}

func TestLiveHitMissAggregation(t *testing.T) {
	l, err := NewLive(1<<16, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Two streams: stream 0 repeats one row (hits after the first access),
	// stream 1 streams distinct rows (all misses).
	for i := 0; i < 10; i++ {
		l.Lookup(0, 7, 64)
		l.Lookup(1, int64(i), 64)
	}
	st := l.Stats()
	if st.Hits != 9 {
		t.Errorf("hits %d, want 9", st.Hits)
	}
	if st.Misses != 11 {
		t.Errorf("misses %d, want 11", st.Misses)
	}
	if st.Entries != 11 {
		t.Errorf("entries %d, want 11", st.Entries)
	}
	if st.UsedBytes != 11*64 {
		t.Errorf("used %d, want %d", st.UsedBytes, 11*64)
	}
}

// TestLiveConcurrent hammers the cache from concurrent goroutines across
// overlapping streams, interleaving Stats readers — the access
// pattern of the engine's sharded gather plus the /stats endpoint (run
// under -race).
func TestLiveConcurrent(t *testing.T) {
	l, err := NewLive(1<<14, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				l.Lookup(w%4, int64(i%97), 32)
				if i%101 == 0 {
					_ = l.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Hits+st.Misses != 8*2000 {
		t.Errorf("accesses %d, want %d", st.Hits+st.Misses, 8*2000)
	}
	if st.UsedBytes > l.CapacityBytes() {
		t.Errorf("used %d exceeds capacity %d", st.UsedBytes, l.CapacityBytes())
	}
}

// TestLiveStatsCoherent pins the snapshot-coherence contract: Stats (and the
// hit rate computed from it) must observe each shard's (hits, misses) pair under the shard lock,
// as one consistent snapshot. The pre-fix implementation kept cache-wide
// atomics updated outside the shard locks and loaded them independently, so a
// reader racing lookups could observe wildly torn pairs.
//
// The harness makes tearing detectable as an invariant violation: W writers
// each strictly alternate a guaranteed hit (their pre-populated row 0, never
// evicted — capacity exceeds everything ever inserted) with a guaranteed miss
// (a fresh row each iteration). At any coherent instant each writer has
// completed at most one more hit than miss beyond the miss that
// pre-populated its hot row, so every snapshot must satisfy
// |hits - misses| <= W. Run under -race.
func TestLiveStatsCoherent(t *testing.T) {
	const (
		writers  = 4
		iters    = 40000
		rowBytes = 64
	)
	// Capacity holds every row the test ever inserts, so nothing is evicted
	// and the hit/miss pattern is deterministic per writer.
	l, err := NewLive(int64((writers*iters+writers+16)*rowBytes), 1)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		l.Lookup(w, 0, rowBytes) // pre-populate each writer's hot row
	}

	var (
		writerWG, auxWG sync.WaitGroup
		done            atomic.Bool
		torn            atomic.Int64
	)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 1; i <= iters; i++ {
				l.Lookup(w, 0, rowBytes)        // hit
				l.Lookup(w, int64(i), rowBytes) // miss: fresh row
			}
		}(w)
	}
	// Snapshot readers: any |hits-misses| beyond the in-flight bound is a
	// torn pair.
	for r := 0; r < 2; r++ {
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			for !done.Load() {
				st := l.Stats()
				if d := st.Hits - st.Misses; d < -writers || d > writers {
					torn.Add(1)
				}
				if hr := l.Stats().HitRate(); hr < 0 || hr > 1 {
					torn.Add(1)
				}
			}
		}()
	}

	writerWG.Wait()
	done.Store(true)
	auxWG.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn hit/miss snapshots (|hits-misses| > %d or hit-rate outside [0,1])", n, writers)
	}
}
