package serving

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"microrec/internal/core"
	"microrec/internal/fixedpoint"
	"microrec/internal/model"
)

// TestExpiredBatchAllocatesNothing serves batches whose every request has
// expired by the time the gather step looks at them. The step resolves them
// and releases the batch to its pool in both drains, so a steady stream of
// expired submits allocates nothing.
func TestExpiredBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	eng := testEngine(t)
	q := randomQueries(t, eng.Spec(), 1, 3)[0]
	for _, drain := range drains {
		t.Run(drain.name, func(t *testing.T) {
			srv := newServer(t, eng, Options{
				Admission: AdmissionOptions{SLA: time.Nanosecond},
				Pipeline:  PipelineOptions{Depth: 2, WorkerPool: drain.workerPool},
			})
			submit := func() {
				if _, err := srv.Submit(context.Background(), q); !errors.Is(err, ErrExpired) {
					t.Fatalf("submit = %v, want ErrExpired", err)
				}
			}
			submit()
			if allocs := testing.AllocsPerRun(200, submit); allocs != 0 {
				t.Errorf("%v allocs per expired submit, want 0", allocs)
			}
			if n := srv.Stats().Admission.DeadlineDrops; n == 0 {
				t.Error("no deadline drops counted")
			}
		})
	}
}

// randomSpec generates a small random model geometry, mirroring the core
// property tests: varying table counts, dims, lookup cadences, dense tails
// and tower shapes exercise the stage split across GEMM tails and
// hidden-tower parities.
func randomSpec(rng *rand.Rand, name string) *model.Spec {
	tables := make([]model.TableSpec, 3+rng.Intn(5))
	for i := range tables {
		tables[i] = model.TableSpec{
			ID:      i,
			Name:    fmt.Sprintf("%s-t%d", name, i),
			Rows:    int64(8 + rng.Intn(300)),
			Dim:     1 + rng.Intn(12),
			Lookups: 1 + rng.Intn(3),
		}
	}
	// 1-4 hidden layers: both tail parities (activations ending in x or y)
	// must be covered.
	hidden := make([]int, 1+rng.Intn(4))
	for i := range hidden {
		hidden[i] = 5 + rng.Intn(36)
	}
	return &model.Spec{Name: name, Tables: tables, DenseDim: rng.Intn(7), Hidden: hidden}
}

// TestDrainsBitIdentityRandomSpecs is the drains' bit-identity property
// test: across random model geometries at both widths, batch sizes and
// depths, every CTR served through Server.Submit, in either drain, equals
// Engine.InferBatch's bit for bit.
func TestDrainsBitIdentityRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		spec := randomSpec(rng, fmt.Sprintf("drain-%d", trial))
		cfg := core.Config{Precision: fixedpoint.Fixed16}
		if trial%2 == 1 {
			cfg.Precision = fixedpoint.Fixed32
		}
		params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 128})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.Build(params, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, drain := range drains {
			srv := newServer(t, eng, Options{
				Pipeline: PipelineOptions{Depth: 2 + trial%3, WorkerPool: drain.workerPool},
			})
			for _, b := range []int{1, 2, 7, 16, 33, 64} {
				qs := randomQueries(t, spec, b, int64(trial*1000+b))
				want, err := eng.InferBatch(qs, nil, nil)
				if err != nil {
					t.Fatalf("%s b=%d: %v", spec.Name, b, err)
				}
				var wg sync.WaitGroup
				for i := range qs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, err := srv.Submit(context.Background(), qs[i])
						if err != nil {
							t.Error(err)
						} else if math.Float32bits(res.CTR) != math.Float32bits(want[i]) {
							t.Errorf("%s %s b=%d query %d: served %v, InferBatch %v", spec.Name, drain.name, b, i, res.CTR, want[i])
						}
					}()
				}
				wg.Wait()
			}
		}
	}
}

// TestStagesOverlap drives the staged drain with known stage times, one query
// per batch, and reads each batch's stage intervals from the flight
// recorder's spans. In steady state most gathers must run while an earlier
// batch is in its dense stage — the overlap the paper's pipelined dataflow
// exists to deliver, which a drain serving one batch at a time never shows —
// and the interval between completions must sit on the slowest stage,
// within scheduler tolerance.
func TestStagesOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive overlap check")
	}
	eng := &sleepEngine{slowEngine{service: 4 * time.Millisecond}, 2 * time.Millisecond, time.Millisecond}
	srv := newServer(t, eng, Options{
		Batching: BatchingOptions{MaxBatch: 1},
		Pipeline: PipelineOptions{Depth: 3},
		Trace:    TraceOptions{Sample: 1},
	})
	const batches = 30
	var wg sync.WaitGroup
	for i := 0; i < batches; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Submit(context.Background(), slowQuery); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	spans := srv.Trace(0, time.Time{})
	if len(spans) != batches {
		t.Fatalf("recorded %d spans, want %d", len(spans), batches)
	}
	// A span's stage segments are contiguous from its enqueue time.
	type stages struct{ gather, dense [2]int64 }
	iv := make([]stages, len(spans))
	done := make([]int64, len(spans))
	for i, sp := range spans {
		g := sp.Start + sp.QueueNS + sp.BatchWaitNS
		d := g + sp.GatherNS + sp.DenseWaitNS
		iv[i] = stages{[2]int64{g, g + sp.GatherNS}, [2]int64{d, d + sp.DenseNS}}
		done[i] = sp.Start + sp.EndToEndNS
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].gather[0] < iv[b].gather[0] })
	sort.Slice(done, func(a, b int) bool { return done[a] < done[b] })

	// Steady state: skip the fill.
	const skip = 5
	overlapped := 0
	for k := skip; k < len(iv); k++ {
		for j := 0; j < k; j++ {
			if iv[k].gather[0] < iv[j].dense[1] && iv[j].dense[0] < iv[k].gather[1] {
				overlapped++
				break
			}
		}
	}
	if steady := len(iv) - skip; 4*overlapped < 3*steady {
		t.Errorf("%d of %d steady-state gathers ran during an earlier batch's dense stage, want at least 3/4: the drain does not overlap stages",
			overlapped, steady)
	}
	measured := float64(done[len(done)-1]-done[skip]) / float64(len(done)-1-skip)
	slowest := float64(eng.service)
	// The bottleneck stage (4 ms) bounds the interval from below; sleep
	// overshoot and scheduling add on top, so allow a generous band.
	if measured < 0.9*slowest || measured > 2.0*slowest {
		t.Errorf("measured interval %.2f ms vs slowest stage %.2f ms (outside [0.9, 2.0]x)",
			measured/1e6, slowest/1e6)
	}
}
