package serving

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"microrec/internal/accel"
	"microrec/internal/core"
	"microrec/internal/embedding"
)

// TestIntervalClosedFormMatchesPipelineModel pins the staged drain's closed
// form to the marked-graph recurrence of the accelerator model's pipeline
// simulator (accel.Pipeline) over random stage times at depths 3–6, where the
// ring does not bind: for stages that are not internally pipelined (latency =
// interval) the recurrence settles on the slowest stage.
func TestIntervalClosedFormMatchesPipelineModel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for depth := 3; depth <= 6; depth++ {
		m := &serviceMeter{depth: depth, staged: true}
		for trial := 0; trial < 500; trial++ {
			var means [numStages]float64
			stages := make([]accel.Stage, numStages)
			for i := range means {
				means[i] = 1e3 + rng.Float64()*1e7
				if trial%10 == 0 {
					means[i] = means[0] // equal stages: a tie for the slowest
				}
				stages[i] = accel.Stage{Name: stageNames[i], LatencyNS: means[i], IntervalNS: means[i], FIFODepth: depth}
			}
			p, err := accel.NewPipeline(stages...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Simulate(4 * accel.DefaultFIFODepth * numStages)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := m.predictNS(means), res.SteadyIntervalNS; math.Abs(got-want) > 1e-9*want {
				t.Fatalf("depth %d, stages %v ns: closed form %v ns, recurrence %v ns", depth, means, got, want)
			}
		}
	}
}

// sleepEngine is a slowEngine whose gather and tail stages also sleep, each
// for its own service time (dense sleeps slowEngine.service).
type sleepEngine struct {
	slowEngine
	gather, tail time.Duration
}

func (e *sleepEngine) GatherIntoPlane(queries []embedding.Query, s *core.BatchScratch) {
	time.Sleep(e.gather)
}

func (e *sleepEngine) TailFromPlane(b int, s *core.BatchScratch, dst []float32) {
	time.Sleep(e.tail)
	e.slowEngine.TailFromPlane(b, s, dst)
}

// TestCapacityAtDepth2 pins the ring term of the closed form. With three equal
// 3 ms stages and two batches in service, two planes bind before any stage
// does: the drain completes a batch every Σ/2 = 4.5 ms, not every 3 ms. The
// capacity estimate must match the completion rate the server sustains, in
// both drains.
func TestCapacityAtDepth2(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive capacity check")
	}
	for _, drain := range drains {
		t.Run(drain.name, func(t *testing.T) {
			const stage = 3 * time.Millisecond
			eng := &sleepEngine{slowEngine{service: stage}, stage, stage}
			srv := newServer(t, eng, Options{
				Batching: BatchingOptions{MaxBatch: 1},
				Pipeline: PipelineOptions{Depth: 2, WorkerPool: drain.workerPool},
			})
			// Four closed-loop clients keep both batches in service and one
			// request always waiting for the next free plane or worker.
			var (
				wg   sync.WaitGroup
				done atomic.Int64
			)
			stop := make(chan struct{})
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := srv.Submit(context.Background(), slowQuery); err != nil {
							t.Error(err)
							return
						}
						done.Add(1)
					}
				}()
			}
			waitFor(t, "the drain to warm up", func() bool { return done.Load() >= 5 })
			n0, t0 := done.Load(), time.Now()
			waitFor(t, "40 completions", func() bool { return done.Load() >= n0+40 })
			measured := float64(done.Load()-n0) / time.Since(t0).Seconds()
			close(stop)
			wg.Wait()
			if capacity := srv.CapacityQPS(); capacity < 0.8*measured || capacity > 1.15*measured {
				t.Errorf("capacity estimate %.0f qps against a measured %.0f completions/s (%.2fx, want [0.8, 1.15])",
					capacity, measured, capacity/measured)
			}
		})
	}
}
