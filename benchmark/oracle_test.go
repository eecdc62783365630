package main

import (
	"math"
	"testing"
	"time"
)

// nudge moves a prediction by one unit in the last place: the smallest
// change the bit-identity check has to catch.
func nudge(p float32) float32 { return math.Float32frombits(math.Float32bits(p) ^ 1) }

// TestWrongPredictionFails shows that the per-response check bites: with one
// client's expected values off by a single bit, exactly that client's
// requests fail, in the served loop and in the gather loop alike.
func TestWrongPredictionFails(t *testing.T) {
	smokeScale(t)
	for _, name := range []string{"light_closed", "embed_lookup"} {
		w, _ := findWorkload(name)
		r, err := setup(w, 2, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		run := func() (attempted, failed int) {
			out, _, err := measure(r, nil, 0, time.Now(), 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			return out.counts()
		}
		if a, f := run(); a == 0 || f != 0 {
			t.Errorf("%s untouched: attempted %d, failed %d", name, a, f)
		}
		// Client 0's stripe in the closed loop; the first query of every
		// batch in the gather loop, where only some batches are checked.
		stride := embedBatch
		if w.clients > 0 {
			stride = w.clients
		}
		for i := 0; i < len(r.expected); i += stride {
			r.expected[i] = nudge(r.expected[i])
		}
		if a, f := run(); f == 0 || f == a {
			t.Errorf("%s with perturbed expectations: attempted %d, failed %d, want some but not all to fail", name, a, f)
		}
		r.close()
	}
}

// TestOraclesBite holds the real seed-1 predictions of the cheapest workload
// to the committed checksum and the float reference, then shows that each
// oracle rejects a changed prediction on its own.
func TestOraclesBite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full-size engine")
	}
	limitProcs()
	w, _ := findWorkload("dense_sat")
	r, err := setup(w, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	attempted, failed, err := r.checkOracle(1)
	if err != nil || failed != 0 || attempted != referenceSample+1 {
		t.Fatalf("untouched: attempted %d, failed %d, err %v", attempted, failed, err)
	}
	// One bit in an entry the reference sample skips: only the checksum sees it.
	saved := r.expected[1]
	r.expected[1] = nudge(saved)
	if _, failed, _ := r.checkOracle(1); failed != 1 {
		t.Errorf("one flipped bit: %d oracle failures, want 1 (the checksum)", failed)
	}
	if _, failed, _ := r.checkOracle(2); failed != 0 {
		t.Errorf("one flipped bit on a seed without a committed checksum: %d failures, want 0", failed)
	}
	r.expected[1] = saved
	// A sampled entry off by more than the tolerance: the reference sees it
	// even where no checksum is committed.
	r.expected[0] += float32(4 * referenceTolerance(w.precision))
	if _, failed, _ := r.checkOracle(2); failed != 1 {
		t.Errorf("prediction off by 4x the tolerance: %d reference failures, want 1", failed)
	}
}
