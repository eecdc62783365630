package pipeline

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/model"
)

// buildEngine assembles a real engine for a spec (capacity-scaled).
func buildEngine(t testing.TB, spec *model.Spec, cfg core.Config) *core.Engine {
	t.Helper()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 128})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Build(params, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// randomSpec generates a small random model geometry, mirroring the core
// property tests: varying table counts, dims, lookup cadences, dense tails
// and tower shapes exercise the stage split across product strides, virtual
// fallbacks, GEMM tails and hidden-tower parities.
func randomSpec(rng *rand.Rand, name string) *model.Spec {
	nt := 3 + rng.Intn(5)
	tables := make([]model.TableSpec, nt)
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
	nh := 1 + rng.Intn(4)
	hidden := make([]int, nh)
	for i := range hidden {
		hidden[i] = 5 + rng.Intn(36)
	}
	return &model.Spec{
		Name:     name,
		Tables:   tables,
		DenseDim: rng.Intn(7),
		Hidden:   hidden,
	}
}

func randomQueries(spec *model.Spec, n int, seed int64) []embedding.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]embedding.Query, n)
	for i := range qs {
		q := make(embedding.Query, len(spec.Tables))
		for ti, tab := range spec.Tables {
			idxs := make([]int64, tab.Lookups)
			for k := range idxs {
				idxs[k] = rng.Int63n(tab.Rows)
			}
			q[ti] = idxs
		}
		qs[i] = q
	}
	return qs
}

// collector is a Deliver sink that copies predictions out of the plane and
// signals completion.
type collector struct {
	mu    sync.Mutex
	preds map[int][]float32
	done  chan int
}

func newCollector(buf int) *collector {
	return &collector{preds: make(map[int][]float32), done: make(chan int, buf)}
}

func (c *collector) deliver(payload interface{}, preds []float32) {
	id := *(payload.(*int))
	c.mu.Lock()
	c.preds[id] = append([]float32(nil), preds...)
	c.mu.Unlock()
	c.done <- id
}

// TestOptionsValidate covers defaulting and rejection.
func TestOptionsValidate(t *testing.T) {
	o := Options{Deliver: func(interface{}, []float32) {}}.withDefaults()
	if o.Depth != 3 || o.MaxBatch != 64 {
		t.Errorf("defaults = %+v", o)
	}
	for _, bad := range []Options{
		{Depth: 1, Deliver: func(interface{}, []float32) {}},
		{Depth: -1, Deliver: func(interface{}, []float32) {}},
		{MaxBatch: -1, Deliver: func(interface{}, []float32) {}},
		{}, // nil Deliver
	} {
		if err := bad.withDefaults().Validate(); err == nil {
			t.Errorf("options %+v: want error", bad)
		}
	}
	if _, err := New(nil, Options{Deliver: func(interface{}, []float32) {}}); err == nil {
		t.Error("nil engine: want error")
	}
}

// TestExecutorBitIdentityRandomSpecs is the pipelined path's bit-identity
// property test: across random model geometries (both tail parities), batch
// sizes and ring depths, the staged executor's predictions are identical to
// the monolithic Engine.InferBatch.
func TestExecutorBitIdentityRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		spec := randomSpec(rng, fmt.Sprintf("pipe-%d", trial))
		cfg := core.Config{Precision: fixedpoint.Fixed16}
		if trial%2 == 1 {
			cfg.Precision = fixedpoint.Fixed32
		}
		eng := buildEngine(t, spec, cfg)
		col := newCollector(64)
		x, err := New(eng, Options{Depth: 2 + trial%3, MaxBatch: 64, Deliver: col.deliver})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]*int, 0, 16)
		want := make(map[int][]float32)
		next := 0
		for _, b := range []int{1, 2, 7, 16, 33, 64} {
			qs := randomQueries(spec, b, int64(trial*1000+b))
			ref, err := eng.InferBatch(qs, nil, nil)
			if err != nil {
				t.Fatalf("%s b=%d: %v", spec.Name, b, err)
			}
			id := next
			next++
			want[id] = ref
			idp := new(int)
			*idp = id
			ids = append(ids, idp)
			x.SubmitOn(<-x.Free(), qs, idp)
		}
		for range ids {
			<-col.done
		}
		if err := x.Close(); err != nil {
			t.Fatal(err)
		}
		col.mu.Lock()
		for id, ref := range want {
			got := col.preds[id]
			if len(got) != len(ref) {
				t.Fatalf("%s batch %d: %d predictions, want %d", spec.Name, id, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s batch %d query %d: pipelined %v, monolithic %v",
						spec.Name, id, i, got[i], ref[i])
				}
			}
		}
		col.mu.Unlock()
	}
}

// fakeEngine is a StageEngine with deterministic stage durations, used to
// check the executor's measured steady-state interval against the stage times.
type fakeEngine struct {
	gather, dense, tail time.Duration
}

func (f *fakeEngine) EnsurePlane(s *core.BatchScratch, b int) {}
func (f *fakeEngine) GatherIntoPlane(qs []embedding.Query, s *core.BatchScratch) {
	time.Sleep(f.gather)
}
func (f *fakeEngine) DenseFromPlane(b int, s *core.BatchScratch) { time.Sleep(f.dense) }
func (f *fakeEngine) TailFromPlane(b int, s *core.BatchScratch, dst []float32) {
	time.Sleep(f.tail)
	for i := range dst {
		dst[i] = 0.5
	}
}

// TestStagesOverlap drives the executor with known stage latencies through
// the production hand-off (a plane from Free, then SubmitOn): the steady-state
// inter-completion interval, timed from Deliver, must sit on the slowest
// stage (within scheduler tolerance) and beat the serial sum of the stages —
// the overlap the paper's pipelined dataflow exists to deliver.
func TestStagesOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive overlap check")
	}
	fe := &fakeEngine{gather: 2 * time.Millisecond, dense: 4 * time.Millisecond, tail: time.Millisecond}
	var (
		mu    sync.Mutex
		times []time.Time
	)
	x, err := New(fe, Options{
		Depth:    3,
		MaxBatch: 4,
		Deliver: func(payload interface{}, preds []float32) {
			mu.Lock()
			times = append(times, time.Now())
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const batches = 30
	qs := make([]embedding.Query, 1)
	for i := 0; i < batches; i++ {
		x.SubmitOn(<-x.Free(), qs, nil)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if len(times) != batches {
		t.Fatalf("delivered %d batches, want %d", len(times), batches)
	}

	// Steady-state: skip the fill, average the remaining completion gaps.
	const skip = 5
	measured := times[len(times)-1].Sub(times[skip]).Seconds() * 1e9 / float64(len(times)-1-skip)
	slowest := float64(fe.dense)
	serial := float64(fe.gather + fe.dense + fe.tail)
	// The bottleneck stage (4 ms) bounds the interval from below; sleep
	// overshoot and scheduling add on top, so allow a generous band.
	if measured < 0.9*slowest || measured > 2.0*slowest {
		t.Errorf("measured interval %.2f ms vs slowest stage %.2f ms (outside [0.9, 2.0]x)",
			measured/1e6, slowest/1e6)
	}
	// Overlap: steady-state interval < gather + GEMM (+ tail) time.
	if measured >= 0.85*serial {
		t.Errorf("measured interval %.2f ms does not overlap stages (serial sum %.2f ms)",
			measured/1e6, serial/1e6)
	}
}

// TestCloseDrainsInFlightUnderLoad closes the executor while submitters keep
// its ring full: every batch handed over through SubmitOn must be delivered
// exactly once, and Close is idempotent. Run under -race this is the
// executor's shutdown integrity test.
func TestCloseDrainsInFlightUnderLoad(t *testing.T) {
	eng := buildEngine(t, model.SmallProduction(), core.Config{Precision: fixedpoint.Fixed16})
	var delivered atomic64
	x, err := New(eng, Options{
		Depth:    4,
		MaxBatch: 8,
		Deliver: func(payload interface{}, preds []float32) {
			if len(preds) == 0 {
				t.Error("empty delivery")
			}
			delivered.add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := randomQueries(model.SmallProduction(), 8, 9)
	var (
		wg       sync.WaitGroup
		accepted atomic64
	)
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				select {
				case p := <-x.Free():
					x.SubmitOn(p, qs, nil)
					accepted.add(1)
				case <-stop:
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	// The submitters stop first, as the serving batcher does: every SubmitOn
	// returns before Close, which then lands on a ring with planes in flight.
	close(stop)
	wg.Wait()
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := delivered.load(), accepted.load(); got != want {
		t.Errorf("delivered %d batches, accepted %d — shutdown dropped responses", got, want)
	}
	if accepted.load() == 0 {
		t.Error("no batch accepted before close")
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
}

// atomic64 is a tiny test counter (avoids importing sync/atomic types into
// every closure signature).
type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) add(d uint64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
