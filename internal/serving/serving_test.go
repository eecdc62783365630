package serving

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/model"
	"microrec/internal/tieredstore"
)

// testEngine builds a small (capacity-scaled) Fixed16 production engine.
// inferEach is the bit-identity tests' oracle: InferOne per query, which
// runs the batched datapath as a batch of one and is bit-identical to any
// batch by construction.
func inferEach(t testing.TB, eng *core.Engine, qs []embedding.Query) []float32 {
	t.Helper()
	out := make([]float32, len(qs))
	for i, q := range qs {
		p, err := eng.InferOne(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		out[i] = p
	}
	return out
}

func testEngine(t testing.TB) *core.Engine {
	t.Helper()
	return buildTestEngine(t, core.Config{Precision: fixedpoint.Fixed16})
}

// buildTestEngine builds the small (capacity-scaled) production model on an
// accelerator configuration.
func buildTestEngine(t testing.TB, cfg core.Config) *core.Engine {
	t.Helper()
	spec := model.SmallProduction()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 64})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Build(params, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func randomQueries(t testing.TB, spec *model.Spec, n int, seed int64) []embedding.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	qs := make([]embedding.Query, n)
	for i := range qs {
		q := embedding.NewQuery(spec)
		for ti, tab := range spec.Tables {
			for k := range q[ti] {
				q[ti][k] = rng.Int63n(tab.Rows)
			}
		}
		qs[i] = q
	}
	return qs
}

func newServer(t testing.TB, eng Engine, opts Options) *Server {
	t.Helper()
	s, err := New(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// drains names both drain modes, for tests that must hold under each.
var drains = []struct {
	name       string
	workerPool bool
}{{"pipeline", false}, {"worker-pool", true}}

func TestOptionsDefaultsAndValidate(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Batching.MaxBatch != 64 || o.Pipeline.Depth != 3 || o.Admission.QueueDepth != 256 {
		t.Errorf("defaults = %+v", o)
	}
	for _, bad := range []Options{
		{Batching: BatchingOptions{MaxBatch: -1}},
		{Pipeline: PipelineOptions{Depth: -2, WorkerPool: true}},
		{Admission: AdmissionOptions{QueueDepth: -1}},
	} {
		if err := bad.withDefaults().Validate(); err == nil {
			t.Errorf("options %+v: want error", bad)
		}
	}
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil engine: want error")
	}
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// holdDrain occupies every plane (or pool worker) of a server on a gated
// slowEngine with one lone request each, and returns once all of them are in
// service and nothing is forming: from then on no batch can be dispatched
// until the test opens the gate. The holders' Submits are joined through wg.
func holdDrain(t *testing.T, srv *Server, wg *sync.WaitGroup) {
	t.Helper()
	for i := 1; i <= srv.opts.Pipeline.Depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := srv.Submit(context.Background(), slowQuery); err != nil || res.BatchSize != 1 {
				t.Errorf("holder: batch %d, err %v; want a lone request served", res.BatchSize, err)
			}
		}()
		waitFor(t, "a drain slot to be held", func() bool {
			return !srv.forming.Load() && srv.InFlightBatches() == i
		})
	}
}

// TestSizeFlush holds every plane (or pool worker), so that only the size
// bound shapes the batches: 3·MaxBatch submitters must coalesce into batches
// of exactly MaxBatch, the batcher must stop reading the submit queue once
// its batch is full, and the load score of the saturated server must equal
// its capacity — occupancy 1.0, never more.
func TestSizeFlush(t *testing.T) {
	for _, drain := range drains {
		t.Run(drain.name, func(t *testing.T) {
			const maxBatch, queueDepth = 4, 8
			eng := &slowEngine{gate: make(chan struct{})}
			srv := newServer(t, eng, Options{
				Batching:  BatchingOptions{MaxBatch: maxBatch},
				Admission: AdmissionOptions{QueueDepth: queueDepth},
				Pipeline:  PipelineOptions{Depth: 2, WorkerPool: drain.workerPool},
			})
			var wg sync.WaitGroup
			holdDrain(t, srv, &wg)
			sizes := make(chan int, maxBatch+queueDepth)
			for i := 0; i < maxBatch+queueDepth; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := srv.Submit(context.Background(), slowQuery)
					if err != nil {
						t.Error(err)
					}
					sizes <- res.BatchSize
				}()
			}
			// One full batch on offer, the rest left in the queue.
			waitFor(t, "the submit queue to fill", func() bool { return srv.QueueLen() == queueDepth })
			if score, capacity := srv.LoadScore(), srv.LoadCapacity(); score != capacity {
				t.Errorf("saturated server: load score %d, capacity %d; want occupancy 1.0", score, capacity)
			}
			close(eng.gate)
			wg.Wait()
			close(sizes)
			for size := range sizes {
				if size != maxBatch {
					t.Errorf("batch size %d behind a held drain, want %d", size, maxBatch)
				}
			}
			if got, want := eng.batches.Load(), uint64(srv.opts.Pipeline.Depth+3); got != want {
				t.Errorf("engine served %d batches, want %d (the holders and three full batches)", got, want)
			}
		})
	}
}

// TestIdleServerDispatchesAtOnce pins the work-conserving rule from the other
// side: an idle drain takes a lone request at once, whatever the (ignored)
// Batching.Window says, and a burst smaller than MaxBatch is served without
// anything having to time out.
func TestIdleServerDispatchesAtOnce(t *testing.T) {
	eng := testEngine(t)
	srv := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 64, Window: time.Hour}})
	qs := randomQueries(t, eng.Spec(), 4, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := srv.Submit(ctx, qs[0])
	if err != nil {
		t.Fatalf("lone submit on an idle server: %v", err)
	}
	if res.BatchSize != 1 {
		t.Errorf("lone submit served in a batch of %d", res.BatchSize)
	}
	var wg sync.WaitGroup
	for _, q := range qs[1:] {
		wg.Add(1)
		go func(q embedding.Query) {
			defer wg.Done()
			if _, err := srv.Submit(ctx, q); err != nil {
				t.Error(err)
			}
		}(q)
	}
	wg.Wait()
	if st := srv.Stats(); st.Queries != 4 || st.Batches == 0 || st.Batches > 4 {
		t.Errorf("stats after a lone request and a 3-query burst: %+v", st)
	}
}

// TestConcurrentSubmitters races many submitters against size and window
// flushes and checks every result against the per-query datapath. Run under
// -race this is the batcher's main integrity test.
func TestConcurrentSubmitters(t *testing.T) {
	eng := testEngine(t)
	srv := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 16}})
	const (
		submitters = 24
		perG       = 20
	)
	qs := randomQueries(t, eng.Spec(), submitters, 3)
	want := make([]float32, submitters)
	for i, q := range qs {
		w, err := eng.InferOne(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < perG; rep++ {
				res, err := srv.Submit(context.Background(), qs[g])
				if err != nil {
					t.Error(err)
					return
				}
				if res.CTR != want[g] {
					t.Errorf("submitter %d rep %d: CTR %v, want %v", g, rep, res.CTR, want[g])
					return
				}
				if res.BatchSize < 1 || res.BatchSize > 16 {
					t.Errorf("batch size %d out of range", res.BatchSize)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Queries != submitters*perG {
		t.Errorf("served %d queries, want %d", st.Queries, submitters*perG)
	}
	if st.MeanBatch <= 1 {
		t.Errorf("mean batch %v: no coalescing happened", st.MeanBatch)
	}
	if st.LatencyUS.P99 <= 0 || st.QPS <= 0 || st.BatchOccupancy <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCloseDrainsInFlight races Close against a wave of submitters: every
// Submit must either return a valid result or ErrServerClosed, and Close
// must not strand any accepted request.
func TestCloseDrainsInFlight(t *testing.T) {
	testCloseDrainsInFlight(t, Options{Batching: BatchingOptions{MaxBatch: 8}}, 4)
}

// testCloseDrainsInFlight closes the server while 16 submitters are mid-wave.
// Each submits until it is refused, so Close is guaranteed to land on live
// traffic however fast the engine serves: every submitter ends on
// ErrServerClosed, and none sees any other error.
func testCloseDrainsInFlight(t *testing.T, opts Options, seed int64) {
	eng := testEngine(t)
	srv := newServer(t, eng, opts)
	const submitters = 16
	qs := randomQueries(t, eng.Spec(), submitters, seed)
	var wg sync.WaitGroup
	var ok, closed atomic.Int64
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				_, err := srv.Submit(context.Background(), qs[g])
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrServerClosed):
					closed.Add(1)
					return
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(g)
	}
	waitFor(t, "a wave of requests to be served", func() bool { return ok.Load() >= submitters })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := closed.Load(); n != submitters {
		t.Errorf("%d of %d submitters observed the closed server", n, submitters)
	}
	// Idempotent close; submit after close fails fast.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), qs[0]); !errors.Is(err, ErrServerClosed) {
		t.Errorf("submit after close = %v, want ErrServerClosed", err)
	}
}

// TestSubmitContextCancel checks cancellation while a batch waits for a plane:
// a waiter whose context is already cancelled, or expires meanwhile, gets its
// context error; the batch it had joined still completes for the others, and
// the cancelled members are dropped at plane-fill time without reaching the
// engine.
func TestSubmitContextCancel(t *testing.T) {
	eng := &slowEngine{gate: make(chan struct{})}
	srv := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 4}, Admission: AdmissionOptions{QueueDepth: 4}, Pipeline: PipelineOptions{Depth: 2}})
	var wg sync.WaitGroup
	holdDrain(t, srv, &wg)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Submit(ctx, slowQuery); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled submit = %v", err)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		if res, err := srv.Submit(context.Background(), slowQuery); err != nil || res.BatchSize != 1 {
			t.Errorf("live member of the waiting batch: batch %d, err %v; want it served alone", res.BatchSize, err)
		}
	}()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	if _, err := srv.Submit(ctx2, slowQuery); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired waiter = %v", err)
	}
	// The live member may not have been admitted yet when the waiter above
	// gave up; the gate opens only once it is part of the waiting batch.
	waitFor(t, "the live member to be admitted", func() bool {
		return srv.Stats().Trace.Arrivals == uint64(srv.opts.Pipeline.Depth)+3 && srv.QueueLen() == 0
	})
	close(eng.gate)
	wg.Wait()
	if got, want := eng.served.Load(), uint64(srv.opts.Pipeline.Depth)+1; got != want {
		t.Errorf("engine served %d queries, want %d (the holders and the live member)", got, want)
	}
	// The pre-cancelled submit was dropped only if it won the race into the
	// queue; the expired waiter always was.
	if drops := srv.Stats().Admission.CancelDrops; drops < 1 || drops > 2 {
		t.Errorf("cancel drops = %d, want 1 or 2", drops)
	}
}

// TestCloseWhileFormingConserves closes a server whose planes (or pool
// workers) are all held and whose batcher holds a forming batch, with a
// shedding queue behind it: every submitted request must resolve as exactly
// one of served, shed, cancelled or refused by the closed server, every
// admitted one must be delivered, and the server's own counters must agree.
func TestCloseWhileFormingConserves(t *testing.T) {
	for _, drain := range drains {
		t.Run(drain.name, func(t *testing.T) { testCloseWhileFormingConserves(t, drain.workerPool) })
	}
}

func testCloseWhileFormingConserves(t *testing.T, workerPool bool) {
	eng := &slowEngine{gate: make(chan struct{})}
	srv, err := New(eng, Options{
		Batching:  BatchingOptions{MaxBatch: 4},
		Admission: AdmissionOptions{QueueDepth: 4, Shed: true, SLA: time.Minute},
		Pipeline:  PipelineOptions{Depth: 2, WorkerPool: workerPool},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var (
		wg                             sync.WaitGroup
		ok, shed, canceled, refused, n atomic.Uint64
	)
	submit := func(ctx context.Context) {
		n.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch _, err := srv.Submit(ctx, slowQuery); {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			case errors.Is(err, context.Canceled):
				canceled.Add(1)
			case errors.Is(err, ErrServerClosed):
				refused.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	holdDrain(t, srv, &wg)
	// More than the forming batch and the queue can take, a third of them
	// cancellable: some are shed, the rest wait behind the held planes.
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 12; i++ {
		if i%3 == 0 {
			submit(ctx)
		} else {
			submit(context.Background())
		}
	}
	waitFor(t, "every submitter to arrive and a batch to be forming", func() bool {
		return srv.Stats().Trace.Arrivals == uint64(srv.opts.Pipeline.Depth)+12 && srv.forming.Load()
	})
	cancel()
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	waitFor(t, "Close to stop admission", func() bool {
		srv.mu.RLock()
		defer srv.mu.RUnlock()
		return srv.closed
	})
	for i := 0; i < 3; i++ {
		submit(context.Background())
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while every plane was held and a batch was forming", err)
	default:
	}
	close(eng.gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if sum := ok.Load() + shed.Load() + canceled.Load() + refused.Load(); sum != n.Load() {
		t.Errorf("submitted %d = %d ok + %d shed + %d cancelled + %d refused does not hold",
			n.Load(), ok.Load(), shed.Load(), canceled.Load(), refused.Load())
	}
	if refused.Load() < 3 {
		t.Errorf("%d submits refused by the closed server, want at least the 3 made after Close", refused.Load())
	}
	// The holders' own requests were served too; holdDrain checked them.
	st := srv.Stats()
	if want := ok.Load() + uint64(srv.opts.Pipeline.Depth); st.Queries != want || eng.served.Load() != want {
		t.Errorf("%d requests got results; server counted %d, engine served %d", want, st.Queries, eng.served.Load())
	}
	if st.Admission.Shed != shed.Load() || st.Admission.CancelDrops != canceled.Load() || st.Admission.DeadlineDrops != 0 {
		t.Errorf("admission stats %+v; submitters saw %d shed, %d cancelled", st.Admission, shed.Load(), canceled.Load())
	}
}

// TestSubmitRejectsMalformed checks validation happens before batching, so
// a bad query cannot poison its neighbours: a wrong shape, an index out of
// range, and each layout that is not embedding.Query's one array, table
// after table (every one of those with the model's shape and in-range
// indices), are answered ErrInvalidQuery without reaching the batcher.
func TestSubmitRejectsMalformed(t *testing.T) {
	eng := testEngine(t)
	srv := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 4}})
	spec := eng.Spec()
	q := randomQueries(t, spec, 1, 8)[0]
	outOfRange := randomQueries(t, spec, 1, 6)[0]
	outOfRange[0][0] = spec.Tables[0].Rows + 1
	n := len(spec.Tables)
	separate, reversed, overlapping := make(embedding.Query, n), make(embedding.Query, n), make(embedding.Query, n)
	capped := embedding.NewQuery(spec)
	rev, zeros := make([]int64, spec.NumLookups()), make([]int64, spec.NumLookups())
	end := len(rev)
	for ti := range q {
		separate[ti] = slices.Clone(q[ti])
		end -= len(q[ti])
		reversed[ti] = rev[end : end+len(q[ti])]
		copy(reversed[ti], q[ti])
		overlapping[ti] = zeros[:len(q[ti])]
		copy(capped[ti], q[ti])
		capped[ti] = capped[ti][:len(q[ti]):len(q[ti])]
	}
	for name, bad := range map[string]embedding.Query{
		"empty": {}, "out of range": outOfRange,
		"separate slices": separate, "tables reversed": reversed,
		"overlapping": overlapping, "capped after packing": capped,
	} {
		if _, err := srv.Submit(context.Background(), bad); !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("%s: Submit = %v, want ErrInvalidQuery", name, err)
		}
	}
	if st := srv.Stats(); st.Queries != 0 {
		t.Errorf("malformed queries reached the batcher: %+v", st)
	}
	if _, err := srv.Submit(context.Background(), q); err != nil {
		t.Errorf("packed query: %v", err)
	}
}

// TestValidateSLA exercises the budget check on the real engine: a budget
// equal to the admitted bound is accepted, one nanosecond less is refused.
func TestValidateSLA(t *testing.T) {
	eng := testEngine(t)
	srv := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 8}})
	bound, err := srv.AdmittedLatencyBound()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ValidateSLA(bound); err != nil {
		t.Errorf("budget equal to the bound %v rejected: %v", bound, err)
	}
	if err := srv.ValidateSLA(bound - time.Nanosecond); err == nil {
		t.Errorf("budget 1ns below the bound %v accepted", bound)
	}
}

// tieredTestEngine builds the test engine on an all-cold tiered store whose
// frequency window holds windowBytes, closed when the test ends.
func tieredTestEngine(t testing.TB, windowBytes int64) *core.Engine {
	t.Helper()
	eng := buildTestEngine(t, core.Config{
		Precision: fixedpoint.Fixed16,
		ColdTier:  &tieredstore.Config{HotBytes: -1, SweepEvery: -1, WindowBytes: windowBytes},
	})
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestStatsHotCache checks the serving stats surface the tiered store's
// frequency window: absent on an all-DRAM engine, populated (with hits from
// repeated queries) on a tiered one.
func TestStatsHotCache(t *testing.T) {
	plain := newServer(t, testEngine(t), Options{Batching: BatchingOptions{MaxBatch: 8}})
	if st := plain.Stats(); st.HotCache != nil {
		t.Error("stats report a hot cache on an all-DRAM engine")
	}

	eng := tieredTestEngine(t, 1<<18)
	srv := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 8}})
	qs := randomQueries(t, eng.Spec(), 16, 3)
	ctx := context.Background()
	for rep := 0; rep < 4; rep++ {
		var wg sync.WaitGroup
		for _, q := range qs {
			wg.Add(1)
			go func(q embedding.Query) {
				defer wg.Done()
				if _, err := srv.Submit(ctx, q); err != nil {
					t.Errorf("submit: %v", err)
				}
			}(q)
		}
		wg.Wait()
	}
	st := srv.Stats()
	if st.HotCache == nil {
		t.Fatal("stats missing hot cache section")
	}
	hc := st.HotCache
	if hc.CapacityBytes != 1<<18 {
		t.Errorf("capacity %d, want %d", hc.CapacityBytes, 1<<18)
	}
	if hc.Hits+hc.Misses == 0 {
		t.Error("cache saw no traffic")
	}
	if hc.Hits == 0 {
		t.Error("repeated queries should produce hits")
	}
	if want := float64(hc.Hits) / float64(hc.Hits+hc.Misses); hc.HitRate != want {
		t.Errorf("hit rate %v, want hits/(hits+misses) = %v", hc.HitRate, want)
	}
}

// countingEngine is a seam fake over slowSpec that counts every seam call,
// validates queries strictly against the spec, and records the batch size of
// every stage call. Each of its three stages sleeps `stage`; with gate set,
// gathers block until the gate closes.
type countingEngine struct {
	stage time.Duration
	gate  chan struct{}

	calls                  atomic.Int64 // every seam call
	rejected               atomic.Int64 // queries ValidateQuery refused
	gathers, denses, tails atomic.Int64

	mu    sync.Mutex
	sizes []int // batch size of every gather, dense and tail call
}

func (e *countingEngine) record(b int) {
	e.calls.Add(1)
	e.mu.Lock()
	e.sizes = append(e.sizes, b)
	e.mu.Unlock()
	time.Sleep(e.stage)
}

func (e *countingEngine) ValidateQuery(q embedding.Query) error {
	e.calls.Add(1)
	if len(q) != 1 || len(q[0]) != 1 || q[0][0] < 0 || q[0][0] >= slowSpec.Tables[0].Rows {
		e.rejected.Add(1)
		return errors.New("countingEngine: query does not fit slowSpec")
	}
	return nil
}

func (e *countingEngine) EnsurePlane(s *core.BatchScratch, b int) { e.calls.Add(1) }

func (e *countingEngine) GatherIntoPlane(queries []embedding.Query, s *core.BatchScratch) {
	if e.gate != nil {
		<-e.gate
	}
	e.gathers.Add(1)
	e.record(len(queries))
}

func (e *countingEngine) DenseFromPlane(b int, s *core.BatchScratch) {
	e.denses.Add(1)
	e.record(b)
}

func (e *countingEngine) TailFromPlane(b int, s *core.BatchScratch, dst []float32) {
	e.tails.Add(1)
	e.record(b)
	for i := range dst[:b] {
		dst[i] = 0.5
	}
}

func (e *countingEngine) Spec() *model.Spec {
	e.calls.Add(1)
	return slowSpec
}

// TestCalibrationRunsOnce pins SLA admission's calibration: 8 concurrent
// ValidateSLA callers share one calibration of exactly calibrationPasses
// gather, dense and tail calls, each on MaxBatch queries that all pass
// ValidateQuery.
func TestCalibrationRunsOnce(t *testing.T) {
	const maxBatch = 8
	eng := &countingEngine{}
	srv := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: maxBatch}})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.ValidateSLA(time.Hour); err != nil {
				t.Errorf("ValidateSLA: %v", err)
			}
		}()
	}
	wg.Wait()
	if g, d, tl := eng.gathers.Load(), eng.denses.Load(), eng.tails.Load(); g != calibrationPasses || d != calibrationPasses || tl != calibrationPasses {
		t.Fatalf("calibration ran %d gathers, %d denses, %d tails; want %d of each", g, d, tl, calibrationPasses)
	}
	if n := eng.rejected.Load(); n != 0 {
		t.Fatalf("%d calibration queries failed ValidateQuery", n)
	}
	for _, b := range eng.sizes {
		if b != maxBatch {
			t.Fatalf("calibration stage sizes %v, want every one %d", eng.sizes, maxBatch)
		}
	}
}

// TestAdmittedBoundIsCalibratedBatch pins the bound formula in both drains:
// the calibrated figure S is at least the fake's three stage sleeps, and the
// bound is (ceil(backlog/workers) + 1) · S, with a backlog of
// ceil(QueueDepth/MaxBatch) queued batches, one on offer and Depth in
// service; the pipeline drains on one worker, the pool on
// min(Depth, GOMAXPROCS). A budget equal to the bound passes and one 1ns
// below it fails.
func TestAdmittedBoundIsCalibratedBatch(t *testing.T) {
	const stage = 200 * time.Microsecond
	for _, d := range drains {
		t.Run(d.name, func(t *testing.T) {
			eng := &countingEngine{stage: stage}
			srv := newServer(t, eng, Options{
				Batching:  BatchingOptions{MaxBatch: 8},
				Admission: AdmissionOptions{QueueDepth: 20},
				Pipeline:  PipelineOptions{Depth: 2, WorkerPool: d.workerPool},
			})
			bound, err := srv.AdmittedLatencyBound()
			if err != nil {
				t.Fatal(err)
			}
			batchNS, err := srv.calibratedBatchNS()
			if err != nil {
				t.Fatal(err)
			}
			if batchNS < float64(3*stage) {
				t.Errorf("calibrated batch %v, below the %v of sleeps in its stages", time.Duration(batchNS), 3*stage)
			}
			rounds := 6 // backlog ceil(20/8) + 1 + 2 on one worker
			if d.workerPool {
				// The same backlog of 6 on the workers that can run.
				workers := min(2, runtime.GOMAXPROCS(0))
				rounds = (6 + workers - 1) / workers
			}
			if want := time.Duration(float64(rounds+1) * batchNS); bound != want {
				t.Errorf("admitted bound %v, want %d × %v = %v", bound, rounds+1, time.Duration(batchNS), want)
			}
			if err := srv.ValidateSLA(bound); err != nil {
				t.Errorf("budget equal to the bound rejected: %v", err)
			}
			if err := srv.ValidateSLA(bound - time.Nanosecond); err == nil {
				t.Error("budget below the bound accepted")
			}
			if n := eng.gathers.Load(); n != calibrationPasses {
				t.Errorf("three admission calls ran %d gathers, want one calibration of %d", n, calibrationPasses)
			}
		})
	}
}

// TestRetryAfterDoesNotTouchEngine pins that the shed path's backoff hint
// never calls the engine: with every drain slot blocked in GatherIntoPlane
// and no batch served yet, RetryAfter returns the 1ms fallback and the
// engine sees no call.
func TestRetryAfterDoesNotTouchEngine(t *testing.T) {
	for _, d := range drains {
		t.Run(d.name, func(t *testing.T) {
			eng := &countingEngine{gate: make(chan struct{})}
			srv := newServer(t, eng, Options{
				Batching:  BatchingOptions{MaxBatch: 1},
				Admission: AdmissionOptions{Shed: true},
				Pipeline:  PipelineOptions{Depth: 2, WorkerPool: d.workerPool},
			})
			var wg sync.WaitGroup
			holdDrain(t, srv, &wg)
			before := eng.calls.Load()
			if ra := srv.RetryAfter(); ra != time.Millisecond {
				t.Errorf("retry-after before the first batch = %v, want 1ms", ra)
			}
			if n := eng.calls.Load() - before; n != 0 {
				t.Errorf("RetryAfter made %d engine calls, want 0", n)
			}
			close(eng.gate)
			wg.Wait()
		})
	}
}

// TestEngineSeamMethodSet pins the serving.Engine seam to the plane stage
// calls, admission validation and the spec: no timing model and no hot-row
// residency rides on it.
func TestEngineSeamMethodSet(t *testing.T) {
	want := []string{"DenseFromPlane", "EnsurePlane", "GatherIntoPlane", "Spec", "TailFromPlane", "ValidateQuery"}
	typ := reflect.TypeOf((*Engine)(nil)).Elem()
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("serving.Engine methods %v, want %v", got, want)
	}
}

// TestEngineSeamHasOneOptionalCapability pins the seam's optional surface:
// beside Engine, the package declares exactly one interface an engine may
// implement, Tiered, and it carries only Tier. Anything else the serving
// path needs from an engine is a stage call on Engine itself.
func TestEngineSeamHasOneOptionalCapability(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["serving"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if _, ok := ts.Type.(*ast.InterfaceType); ok {
					got = append(got, ts.Name.Name)
				}
			}
			return true
		})
	}
	slices.Sort(got)
	if want := []string{"Engine", "Tiered"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("internal/serving declares interfaces %v, want %v", got, want)
	}
	typ := reflect.TypeOf((*Tiered)(nil)).Elem()
	if typ.NumMethod() != 1 || typ.Method(0).Name != "Tier" {
		t.Fatalf("serving.Tiered has %d methods, want only Tier", typ.NumMethod())
	}
}

// TestServedTrafficDoesNotPrefetch checks that a tiered server reads each
// row once, in the gather: neither drain nor the SLA calibration batch runs a
// separate prefetch pass over the store.
func TestServedTrafficDoesNotPrefetch(t *testing.T) {
	for _, d := range drains {
		t.Run(d.name, func(t *testing.T) {
			eng := tieredTestEngine(t, 1<<16)
			srv := newServer(t, eng, Options{
				Batching: BatchingOptions{MaxBatch: 8},
				Pipeline: PipelineOptions{WorkerPool: d.workerPool},
			})
			if _, err := srv.AdmittedLatencyBound(); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, q := range randomQueries(t, eng.Spec(), 24, 11) {
				if _, err := srv.Submit(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
			st := srv.Stats()
			if st.Tiers == nil || st.Tiers.ColdReads == 0 {
				t.Fatalf("tiered server recorded no cold reads: %+v", st.Tiers)
			}
			if st.Tiers.Prefetches != 0 {
				t.Fatalf("served traffic ran %d prefetches, want 0", st.Tiers.Prefetches)
			}
		})
	}
}

// TestAdmittedLatencyBounds checks the bound on the real engine, all-DRAM
// and tiered: a budget equal to the bound is accepted and one 1ns below it
// refused, and warming the tier's frequency window leaves the bound where
// the one calibration put it.
func TestAdmittedLatencyBounds(t *testing.T) {
	opts := Options{Batching: BatchingOptions{MaxBatch: 8}}
	check := func(name string, srv *Server) time.Duration {
		t.Helper()
		bound, err := srv.AdmittedLatencyBound()
		if err != nil {
			t.Fatal(err)
		}
		if bound <= 0 {
			t.Fatalf("%s: bound %v", name, bound)
		}
		if err := srv.ValidateSLA(bound); err != nil {
			t.Errorf("%s: budget equal to the bound rejected: %v", name, err)
		}
		if err := srv.ValidateSLA(bound - time.Nanosecond); err == nil {
			t.Errorf("%s: budget 1ns below the bound accepted", name)
		}
		return bound
	}
	check("all-DRAM", newServer(t, testEngine(t), opts))

	eng := tieredTestEngine(t, 1<<18)
	srv := newServer(t, eng, opts)
	cold := check("cold window", srv)
	ctx := context.Background()
	qs := randomQueries(t, eng.Spec(), 8, 9)
	for rep := 0; rep < 3; rep++ {
		for _, q := range qs {
			if _, err := srv.Submit(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if w := eng.Tier().Snapshot().Window; w.Hits == 0 {
		t.Fatalf("window did not warm: %+v", w)
	}
	if warm := check("warm window", srv); warm != cold {
		t.Errorf("warm window moved the bound: %v, cold %v", warm, cold)
	}
}

// TestAdmittedLatencyBoundsPipelineMode pins the backlog model of both
// drains. The pipeline is treated conservatively as a single drain worker
// with the full un-overlapped batch service time, so each extra queued batch
// adds exactly one calibrated batch to its bound; the worker pool drains
// min(Depth, GOMAXPROCS) batches per round, the workers that can run at once.
func TestAdmittedLatencyBoundsPipelineMode(t *testing.T) {
	const service = time.Millisecond
	for _, tc := range []struct {
		name                        string
		maxBatch, queueDepth, depth int
	}{
		// backlog = ceil(queueDepth/maxBatch) + 1 + depth
		{"one-queued-batch", 8, 8, 2},        // backlog 4
		{"partial-batch-rounds-up", 8, 9, 2}, // backlog 5
		{"deep-queue", 4, 64, 3},             // backlog 20
		{"deep-pipeline", 16, 32, 6},         // backlog 9
	} {
		t.Run(tc.name, func(t *testing.T) {
			// check builds a server and asserts its bound is `batches`
			// calibrated full batches, each at least the fake's service, and
			// that ValidateSLA enforces exactly that bound.
			check := func(queueDepth int, workerPool bool, batches int) {
				t.Helper()
				srv := newServer(t, &slowEngine{service: service}, Options{
					Batching:  BatchingOptions{MaxBatch: tc.maxBatch},
					Admission: AdmissionOptions{QueueDepth: queueDepth},
					Pipeline:  PipelineOptions{Depth: tc.depth, WorkerPool: workerPool},
				})
				b, err := srv.AdmittedLatencyBound()
				if err != nil {
					t.Fatal(err)
				}
				batchNS, err := srv.calibratedBatchNS()
				if err != nil {
					t.Fatal(err)
				}
				if batchNS < float64(service) {
					t.Errorf("calibrated batch %v below the fake's %v service", time.Duration(batchNS), service)
				}
				if want := time.Duration(float64(batches) * batchNS); b != want {
					t.Errorf("queue %d pool=%v: bound %v, want %d batches of %v = %v",
						queueDepth, workerPool, b, batches, time.Duration(batchNS), want)
				}
				if err := srv.ValidateSLA(b); err != nil {
					t.Errorf("queue %d pool=%v: budget equal to the bound rejected: %v", queueDepth, workerPool, err)
				}
				if err := srv.ValidateSLA(b - time.Nanosecond); err == nil {
					t.Errorf("queue %d pool=%v: budget 1ns below the bound accepted", queueDepth, workerPool)
				}
			}
			backlog := (tc.queueDepth+tc.maxBatch-1)/tc.maxBatch + 1 + tc.depth
			workers := min(tc.depth, runtime.GOMAXPROCS(0))
			check(tc.queueDepth, false, backlog+1)
			check(tc.queueDepth, true, (backlog+workers-1)/workers+1)
			// One more full batch of queue depth is one more queued batch.
			check(tc.queueDepth+tc.maxBatch, false, backlog+2)
		})
	}
}

// TestValidateSLARejectsNonPositiveBudget checks that a budget no query can
// meet is refused before calibration runs.
func TestValidateSLARejectsNonPositiveBudget(t *testing.T) {
	for _, budget := range []time.Duration{0, -time.Millisecond} {
		t.Run(budget.String(), func(t *testing.T) {
			eng := &countingEngine{}
			srv := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 8}})
			if err := srv.ValidateSLA(budget); err == nil {
				t.Errorf("budget %v accepted", budget)
			}
			if n := eng.gathers.Load(); n != 0 {
				t.Errorf("rejecting budget %v ran %d calibration gathers, want 0", budget, n)
			}
		})
	}
}

// TestServingNamesNoModelledTiming pins the serving stack's independence
// from the offline models in source: no non-test file of the serving,
// router or tieredstore packages names the accelerator timing model
// or a modelled cold-tier latency. That no package serving imports reaches
// internal/experiments or internal/accel is the root package's
// TestImportsGolden.
func TestServingNamesNoModelledTiming(t *testing.T) {
	banned := []string{"TimingAt", "TimingReport", "LookupNS", "ColdLatencyNS", "BoundNS"}
	for _, pkg := range []string{"serving", "router", "tieredstore"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no sources (err %v)", pkg, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, word := range banned {
				if strings.Contains(string(src), word) {
					t.Errorf("%s mentions %s", f, word)
				}
			}
		}
	}
}

// TestServeHotCacheRace drives a tiered server with many concurrent
// submitters while polling Stats — the store's shared frequency window under
// the pipelined drain, the scenario the -race CI job pins down.
func TestServeHotCacheRace(t *testing.T) {
	eng := tieredTestEngine(t, 1<<16)
	srv := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 16}})
	ctx := context.Background()
	qs := randomQueries(t, eng.Spec(), 64, 21)
	want := make([]float32, len(qs))
	for i, q := range qs {
		res, err := srv.Submit(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.CTR
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				qi := (w*31 + i) % len(qs)
				res, err := srv.Submit(ctx, qs[qi])
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if res.CTR != want[qi] {
					t.Errorf("query %d: CTR %v, want %v", qi, res.CTR, want[qi])
					return
				}
				if i%10 == 0 {
					_ = srv.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	st := srv.Stats()
	if st.HotCache == nil || st.HotCache.Hits == 0 {
		t.Error("expected window hits under repeated concurrent traffic")
	}
}

// TestPipelineModeDefaults checks the default drain is the staged pipeline
// and that its options validate: depth below 2 is rejected unless the worker
// pool is selected, which needs one worker.
func TestPipelineModeDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Pipeline.Depth != 3 || o.Pipeline.WorkerPool {
		t.Errorf("defaults = %+v, want pipelined drain with depth 3", o)
	}
	if err := (Options{Pipeline: PipelineOptions{Depth: 1}}).withDefaults().Validate(); err == nil {
		t.Error("pipeline depth 1: want error")
	}
	if err := (Options{Pipeline: PipelineOptions{Depth: 1, WorkerPool: true}}).withDefaults().Validate(); err != nil {
		t.Errorf("one pool worker rejected: %v", err)
	}

	eng := testEngine(t)
	srv := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 8}})
	if srv.Mode() != "pipeline" {
		t.Errorf("mode = %q, want pipeline", srv.Mode())
	}
	pool := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 8}, Pipeline: PipelineOptions{WorkerPool: true}})
	if pool.Mode() != "worker-pool" {
		t.Errorf("mode = %q, want worker-pool", pool.Mode())
	}
	if st := pool.Stats(); st.Pipeline == nil || st.Pipeline.Depth != 3 || st.Mode != "worker-pool" {
		t.Errorf("worker-pool stats miss the pipeline section: %+v", st)
	}
}

// TestWorkerPoolFallbackServes drives both drains end to end over the same
// queries and checks that they serve one datapath: every CTR is bit-identical
// to Engine.InferOne, on a Fixed16 and a Fixed32 engine, and with the ignored
// TierOptions.Shards set, the path the benchmark module's shard probe still
// takes.
func TestWorkerPoolFallbackServes(t *testing.T) {
	fixed16 := testEngine(t)
	for _, tc := range []struct {
		name   string
		eng    *core.Engine
		shards int
	}{
		{"fixed16", fixed16, 0},
		{"fixed32", buildTestEngine(t, core.Config{Precision: fixedpoint.Fixed32}), 0},
		{"fixed16-shards2", fixed16, 2},
	} {
		qs := randomQueries(t, tc.eng.Spec(), 16, 31)
		want := inferEach(t, tc.eng, qs)
		for _, drain := range drains {
			t.Run(tc.name+"/"+drain.name, func(t *testing.T) {
				srv := newServer(t, tc.eng, Options{
					Batching: BatchingOptions{MaxBatch: 8},
					Pipeline: PipelineOptions{Depth: 2, WorkerPool: drain.workerPool},
					Tier:     TierOptions{Shards: tc.shards},
				})
				var wg sync.WaitGroup
				for i := range qs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						res, err := srv.Submit(context.Background(), qs[i])
						if err != nil {
							t.Error(err)
							return
						}
						if math.Float32bits(res.CTR) != math.Float32bits(want[i]) {
							t.Errorf("query %d: CTR %v, InferOne %v", i, res.CTR, want[i])
						}
					}(i)
				}
				wg.Wait()
				if st := srv.Stats(); st.Queries != uint64(len(qs)) || st.Mode != drain.name {
					t.Errorf("stats = %+v", st)
				}
			})
		}
	}
}

// TestStatsPipelineSection checks /stats' pipeline block in both drains:
// depth, in-flight bound, per-stage counters that agree with the batch count,
// and the measured/predicted interval pair once traffic has flowed.
func TestStatsPipelineSection(t *testing.T) {
	eng := testEngine(t)
	for _, drain := range drains {
		t.Run(drain.name, func(t *testing.T) { testStatsPipelineSection(t, eng, drain.workerPool) })
	}
}

func testStatsPipelineSection(t *testing.T, eng *core.Engine, workerPool bool) {
	srv := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 8}, Pipeline: PipelineOptions{Depth: 4, WorkerPool: workerPool}})
	qs := randomQueries(t, eng.Spec(), 16, 37)
	ctx := context.Background()
	for rep := 0; rep < 4; rep++ {
		var wg sync.WaitGroup
		for _, q := range qs {
			wg.Add(1)
			go func(q embedding.Query) {
				defer wg.Done()
				if _, err := srv.Submit(ctx, q); err != nil {
					t.Errorf("submit: %v", err)
				}
			}(q)
		}
		wg.Wait()
	}
	st := srv.Stats()
	if st.Mode != srv.Mode() || st.Pipeline == nil {
		t.Fatalf("stats missing pipeline section: %+v", st)
	}
	p := st.Pipeline
	if p.Depth != 4 {
		t.Errorf("depth %d, want 4", p.Depth)
	}
	if p.InFlight < 0 || p.InFlight > p.Depth {
		t.Errorf("in-flight %d outside [0, %d]", p.InFlight, p.Depth)
	}
	if p.Completed == 0 || p.Completed != st.Batches {
		t.Errorf("pipeline completed %d batches, server dispatched %d", p.Completed, st.Batches)
	}
	if len(p.Stages) != 3 {
		t.Fatalf("stages = %d, want 3 (gather, dense-gemm, tail)", len(p.Stages))
	}
	for _, stage := range p.Stages {
		if stage.Batches != p.Completed {
			t.Errorf("stage %s served %d batches, want %d", stage.Name, stage.Batches, p.Completed)
		}
		if stage.MeanServiceUS <= 0 {
			t.Errorf("stage %s mean service %v", stage.Name, stage.MeanServiceUS)
		}
		if stage.Occupancy < 0 || stage.Occupancy > 1 {
			t.Errorf("stage %s occupancy %v", stage.Name, stage.Occupancy)
		}
	}
	if p.PredictedIntervalUS <= 0 || p.MeasuredIntervalUS <= 0 {
		t.Errorf("intervals after traffic: predicted %v us, measured %v us", p.PredictedIntervalUS, p.MeasuredIntervalUS)
	}
	if p.SerialIntervalUS < p.PredictedIntervalUS {
		t.Errorf("serial interval %v us below overlapped prediction %v us",
			p.SerialIntervalUS, p.PredictedIntervalUS)
	}
}

// TestPipelineCloseDrainsInFlight is the pipelined twin of
// TestCloseDrainsInFlight: closing mid-wave must resolve every accepted
// request through the remaining stages (run under -race in CI).
func TestPipelineCloseDrainsInFlight(t *testing.T) {
	testCloseDrainsInFlight(t, Options{Batching: BatchingOptions{MaxBatch: 8}, Pipeline: PipelineOptions{Depth: 3}}, 41)
}
