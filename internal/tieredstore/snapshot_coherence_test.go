package tieredstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSnapshotCoherentUnderPlacementChurn is the regression test for the
// microrec-vet statsnapshot finding on Store.Snapshot: a snapshot once read
// part of its placement-derived fields under one s.mu acquisition and the
// rest under a second, so a placement published between the two produced a
// snapshot no real instant ever exhibited. The store here has a single
// stream flipping between all-hot and all-cold — every placement change is a
// full state transition — and every snapshot must pair its hot-row count
// with the hot bytes that placement pins: HotBytes == HotRows × dim × 4. Both
// come from one acquisition, so every snapshot satisfies the invariant.
//
// A stale window between two acquisitions is a handful of instructions, so
// catching one needs the mutator parked on the mutex when the first one
// releases. With a single P the mutator only runs on async preemption and
// the window is never hit; raising GOMAXPROCS puts the mutator and readers
// on their own OS threads, where kernel preemption and the mutex's
// starvation-mode handoff interleave them often enough that the time-bound
// loop below observes the mix, even on a one-core host.
func TestSnapshotCoherentUnderPlacementChurn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		rows    = 64
		dim     = 4
		readers = 4
	)
	rng := rand.New(rand.NewSource(7))
	data := make([]int32, rows*dim)
	for i := range data {
		data[i] = rng.Int31()
	}
	s := openStreams(t, Config{SweepEvery: -1, HotBytes: 1 << 30}, []testStream{{StreamSpec{ID: 0, Rows: rows, Dim: dim}, data}})

	allRows := make([]int64, rows)
	for r := range allRows {
		allRows[r] = int64(r)
	}

	stop := make(chan struct{})
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				s.SetPlacement(0, allRows)
			} else {
				s.SetPlacement(0, nil)
			}
		}
	}()

	deadline := time.Now().Add(2 * time.Second)
	violations := make(chan string, readers)
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for time.Now().Before(deadline) {
				snap := s.Snapshot()
				if snap.HotBytes != snap.HotRows*dim*4 || snap.HotRows+snap.ColdRows != rows {
					violations <- fmt.Sprintf("snapshot pairs HotRows=%d ColdRows=%d with HotBytes=%d (counts from two placements)",
						snap.HotRows, snap.ColdRows, snap.HotBytes)
					return
				}
			}
		}()
	}
	rg.Wait()
	close(stop)
	mutator.Wait()
	select {
	case v := <-violations:
		t.Fatal(v)
	default:
	}
}
