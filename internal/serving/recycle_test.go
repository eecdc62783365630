package serving

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitRecyclesRequestsSafely hammers Submit with contexts that expire
// at every point of a request's life — before the queue, in the queue, in a
// batch, in service — next to submitters that never give up, in both drain
// modes. A context deadline is also the request's serving deadline, so the
// drains' expiry filter resolves some of them with an error itself. Requests
// and batches are pooled, so the test is the proof of the ownership rule: a
// stage never touches a request after sending its reply, and a request
// abandoned on ctx.Done() is never recycled. Under -race a stage reading a
// request its submitter has already reused is a reported race; without it, a
// reply computed from another submitter's query, or a stale reply left in a
// reused channel, shows as a wrong prediction.
func TestSubmitRecyclesRequestsSafely(t *testing.T) {
	eng := testEngine(t)
	qs := randomQueries(t, eng.Spec(), 48, 11)
	want := make([]float32, len(qs))
	for i, q := range qs {
		w, err := eng.InferOne(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	for _, drain := range drains {
		t.Run(drain.name, func(t *testing.T) {
			const (
				maxBatch   = 8
				submitters = 32
				perG       = 250
			)
			srv := newServer(t, eng, Options{
				Batching:  BatchingOptions{MaxBatch: maxBatch},
				Admission: AdmissionOptions{QueueDepth: 16},
				Pipeline:  PipelineOptions{Depth: 2, WorkerPool: drain.workerPool},
			})
			var (
				wg             sync.WaitGroup
				served, gaveUp atomic.Int64
			)
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for n := 0; n < perG; n++ {
						i := rng.Intn(len(qs))
						ctx, cancel := context.Background(), context.CancelFunc(func() {})
						if g%2 == 0 {
							ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(600))*time.Microsecond)
						}
						res, err := srv.Submit(ctx, qs[i])
						cancel()
						switch {
						case err == nil:
							served.Add(1)
							if math.Float32bits(res.CTR) != math.Float32bits(want[i]) {
								t.Errorf("submitter %d: query %d answered %v, want %v", g, i, res.CTR, want[i])
								return
							}
							if res.BatchSize < 1 || res.BatchSize > maxBatch {
								t.Errorf("submitter %d: batch size %d", g, res.BatchSize)
								return
							}
						case errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrExpired):
							gaveUp.Add(1)
						default:
							t.Errorf("submitter %d: %v", g, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if served.Load() == 0 || gaveUp.Load() == 0 {
				t.Fatalf("served %d, gave up %d: the run must see both outcomes", served.Load(), gaveUp.Load())
			}
		})
	}
}
