package serving

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"microrec/internal/cluster"
	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/memsim"
	"microrec/internal/model"
	"microrec/internal/placement"
)

// testEngine builds a small (capacity-scaled) production engine.
func testEngine(t testing.TB) *core.Engine {
	t.Helper()
	spec := model.SmallProduction()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.SmallFP16()
	plan, err := placement.Plan(spec, memsim.U280(cfg.OnChipBanks), placement.Options{EnableCartesian: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Build(params, plan, cfg)
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

func newServer(t testing.TB, eng Engine, opts Options) *Server {
	t.Helper()
	s, err := New(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestOptionsDefaultsAndValidate(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxBatch != 64 || o.Workers < 1 || o.QueueDepth != 256 || o.StatsWindow != 4096 {
		t.Errorf("defaults = %+v", o)
	}
	for _, bad := range []Options{
		{MaxBatch: -1},
		{Workers: -2},
		{QueueDepth: -1},
		{StatsWindow: -1},
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
	for i := 1; i <= srv.drainSlots(); i++ {
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
	for _, workerPool := range []bool{false, true} {
		t.Run(map[bool]string{false: "pipeline", true: "worker-pool"}[workerPool], func(t *testing.T) {
			const maxBatch, queueDepth = 4, 8
			eng := &slowEngine{gate: make(chan struct{})}
			srv := newServer(t, eng, Options{
				MaxBatch: maxBatch, Window: time.Hour, QueueDepth: queueDepth,
				PipelineDepth: 2, Workers: 2, WorkerPool: workerPool,
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
			if got, want := eng.batches.Load(), uint64(srv.drainSlots()+3); got != want {
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
	srv := newServer(t, eng, Options{MaxBatch: 64, Window: time.Hour})
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
	srv := newServer(t, eng, Options{MaxBatch: 16, Window: 300 * time.Microsecond, Workers: 4})
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
	eng := testEngine(t)
	srv, err := New(eng, Options{MaxBatch: 8, Window: 200 * time.Microsecond, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	qs := randomQueries(t, eng.Spec(), 16, 4)
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, closed := 0, 0
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				_, err := srv.Submit(context.Background(), qs[g])
				mu.Lock()
				switch {
				case err == nil:
					ok++
				case errors.Is(err, ErrServerClosed):
					closed++
				default:
					t.Errorf("unexpected error: %v", err)
				}
				mu.Unlock()
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if ok == 0 {
		t.Error("no request served before close")
	}
	if closed == 0 {
		t.Error("no request observed the closed server")
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
	srv := newServer(t, eng, Options{MaxBatch: 4, Window: time.Hour, QueueDepth: 4, PipelineDepth: 2})
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
		return srv.Stats().Trace.Arrivals == uint64(srv.drainSlots())+3 && srv.QueueLen() == 0
	})
	close(eng.gate)
	wg.Wait()
	if got, want := eng.served.Load(), uint64(srv.drainSlots())+1; got != want {
		t.Errorf("engine served %d queries, want %d (the holders and the live member)", got, want)
	}
	// The pre-cancelled submit was dropped only if it won the race into the
	// queue; the expired waiter always was.
	if drops := srv.Stats().Admission.CancelDrops; drops < 1 || drops > 2 {
		t.Errorf("cancel drops = %d, want 1 or 2", drops)
	}
}

// TestCloseWhileFormingConserves closes a server whose planes are all held
// and whose batcher holds a forming batch, with a shedding queue behind it:
// every submitted request must resolve as exactly one of served, shed,
// cancelled or refused by the closed server, every admitted one must be
// delivered, and the server's own counters must agree.
func TestCloseWhileFormingConserves(t *testing.T) {
	eng := &slowEngine{gate: make(chan struct{})}
	srv, err := New(eng, Options{MaxBatch: 4, QueueDepth: 4, PipelineDepth: 2, Shed: true, SLA: time.Minute})
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
		return srv.Stats().Trace.Arrivals == uint64(srv.drainSlots())+12 && srv.forming.Load()
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
	if want := ok.Load() + uint64(srv.drainSlots()); st.Queries != want || eng.served.Load() != want {
		t.Errorf("%d requests got results; server counted %d, engine served %d", want, st.Queries, eng.served.Load())
	}
	if st.Admission.Shed != shed.Load() || st.Admission.CancelDrops != canceled.Load() || st.Admission.DeadlineDrops != 0 {
		t.Errorf("admission stats %+v; submitters saw %d shed, %d cancelled", st.Admission, shed.Load(), canceled.Load())
	}
}

// TestSubmitRejectsMalformed checks validation happens before batching, so
// a bad query cannot poison its neighbours.
func TestSubmitRejectsMalformed(t *testing.T) {
	eng := testEngine(t)
	srv := newServer(t, eng, Options{MaxBatch: 4, Window: time.Millisecond, Workers: 1})
	if _, err := srv.Submit(context.Background(), embedding.Query{}); err == nil {
		t.Error("empty query: want error")
	}
	bad := randomQueries(t, eng.Spec(), 1, 6)[0]
	bad[0] = []int64{eng.Spec().Tables[0].Rows + 1}
	if _, err := srv.Submit(context.Background(), bad); err == nil {
		t.Error("out-of-range query: want error")
	}
	st := srv.Stats()
	if st.Queries != 0 {
		t.Errorf("malformed queries reached the batcher: %+v", st)
	}
}

// TestValidateSLA exercises the window-vs-budget check through the engine's
// timing model.
func TestValidateSLA(t *testing.T) {
	eng := testEngine(t)
	srv := newServer(t, eng, Options{MaxBatch: 8, Window: 100 * time.Microsecond, Workers: 1})
	// The modeled service time for 8 items is well under a generous budget.
	if err := srv.ValidateSLA(100 * time.Millisecond); err != nil {
		t.Errorf("generous budget rejected: %v", err)
	}
	// A sub-window budget must fail.
	if err := srv.ValidateSLA(50 * time.Microsecond); err == nil {
		t.Error("impossible budget accepted")
	}
}

// testEngineWithCache builds the test engine with a live hot-row cache.
func testEngineWithCache(t testing.TB, capacity int64) *core.Engine {
	t.Helper()
	spec := model.SmallProduction()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.SmallFP16()
	cfg.HotCacheBytes = capacity
	plan, err := placement.Plan(spec, memsim.U280(cfg.OnChipBanks), placement.Options{EnableCartesian: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Build(params, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestStatsHotCache checks the serving stats surface the live cache: absent
// without one, populated (with a warming hit rate and an effective lookup
// latency below the cold one) when attached.
func TestStatsHotCache(t *testing.T) {
	plain := newServer(t, testEngine(t), Options{MaxBatch: 8, Window: 50 * time.Microsecond})
	if st := plain.Stats(); st.HotCache != nil {
		t.Error("stats report a hot cache on an engine without one")
	}

	eng := testEngineWithCache(t, 1<<18)
	srv := newServer(t, eng, Options{MaxBatch: 8, Window: 50 * time.Microsecond, Workers: 2})
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
	if hc.EffectiveLookupNS >= hc.ColdLookupNS {
		t.Errorf("warm cache: effective %v should beat cold %v", hc.EffectiveLookupNS, hc.ColdLookupNS)
	}
}

// TestAdmittedLatencyBounds checks the cold/expected pair: without a cache
// the bounds coincide; with a warm cache the expected latency is no worse
// than the cold worst case, and the worst case is what ValidateSLA enforces.
func TestAdmittedLatencyBounds(t *testing.T) {
	srv := newServer(t, testEngine(t), Options{MaxBatch: 8, Window: 100 * time.Microsecond})
	worst, expected, err := srv.AdmittedLatencyBounds()
	if err != nil {
		t.Fatal(err)
	}
	if worst != expected {
		t.Errorf("no cache: worst %v != expected %v", worst, expected)
	}
	if worst <= 0 {
		t.Errorf("worst-case bound %v should be positive", worst)
	}

	eng := testEngineWithCache(t, 1<<18)
	csrv := newServer(t, eng, Options{MaxBatch: 8, Window: 100 * time.Microsecond})
	ctx := context.Background()
	qs := randomQueries(t, eng.Spec(), 8, 9)
	for rep := 0; rep < 3; rep++ {
		for _, q := range qs {
			if _, err := csrv.Submit(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	cworst, cexpected, err := csrv.AdmittedLatencyBounds()
	if err != nil {
		t.Fatal(err)
	}
	if cexpected > cworst {
		t.Errorf("expected %v exceeds cache-cold worst case %v", cexpected, cworst)
	}
}

// TestServeHotCacheRace drives a cache-fronted server with many concurrent
// submitters while polling Stats — the shared live cache under the worker
// pool, the scenario the -race CI job pins down.
func TestServeHotCacheRace(t *testing.T) {
	eng := testEngineWithCache(t, 1<<16)
	srv := newServer(t, eng, Options{MaxBatch: 16, Window: 100 * time.Microsecond, Workers: 4})
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
		t.Error("expected cache hits under repeated concurrent traffic")
	}
}

// TestPipelineModeDefaults checks the default drain is the staged pipeline
// and that its options validate: depth below 2 is rejected unless the
// worker-pool fallback is selected.
func TestPipelineModeDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.PipelineDepth != 3 || o.WorkerPool {
		t.Errorf("defaults = %+v, want pipelined drain with depth 3", o)
	}
	if err := (Options{PipelineDepth: 1}).withDefaults().Validate(); err == nil {
		t.Error("pipeline depth 1: want error")
	}
	if err := (Options{PipelineDepth: 1, WorkerPool: true}).withDefaults().Validate(); err != nil {
		t.Errorf("worker pool ignores pipeline depth: %v", err)
	}

	eng := testEngine(t)
	srv := newServer(t, eng, Options{MaxBatch: 8, Window: 100 * time.Microsecond})
	if srv.Mode() != "pipeline" {
		t.Errorf("mode = %q, want pipeline", srv.Mode())
	}
	pool := newServer(t, eng, Options{MaxBatch: 8, Window: 100 * time.Microsecond, WorkerPool: true})
	if pool.Mode() != "worker-pool" {
		t.Errorf("mode = %q, want worker-pool", pool.Mode())
	}
	if st := pool.Stats(); st.Pipeline != nil || st.Mode != "worker-pool" {
		t.Errorf("worker-pool stats carry a pipeline section: %+v", st)
	}
}

// TestWorkerPoolFallbackServes drives the fallback drain end to end: results
// stay bit-identical to the per-query datapath and close drains in flight —
// the PR 2 behaviour, preserved behind the flag.
func TestWorkerPoolFallbackServes(t *testing.T) {
	eng := testEngine(t)
	srv := newServer(t, eng, Options{MaxBatch: 8, Window: 200 * time.Microsecond, Workers: 2, WorkerPool: true})
	qs := randomQueries(t, eng.Spec(), 16, 31)
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
			want, err := eng.InferOne(qs[i])
			if err != nil {
				t.Error(err)
				return
			}
			if res.CTR != want {
				t.Errorf("query %d: CTR %v, want %v", i, res.CTR, want)
			}
		}(i)
	}
	wg.Wait()
	if st := srv.Stats(); st.Queries != 16 || st.Mode != "worker-pool" {
		t.Errorf("stats = %+v", st)
	}
}

// TestStatsPipelineSection checks /stats' pipeline block: depth, in-flight
// bound, per-stage counters that agree with the batch count, and the
// measured/predicted interval pair once traffic has flowed.
func TestStatsPipelineSection(t *testing.T) {
	eng := testEngine(t)
	srv := newServer(t, eng, Options{MaxBatch: 8, Window: 100 * time.Microsecond, PipelineDepth: 4})
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
	if st.Mode != "pipeline" || st.Pipeline == nil {
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
	if p.PredictedIntervalUS <= 0 {
		t.Errorf("predicted interval %v us after traffic", p.PredictedIntervalUS)
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
	eng := testEngine(t)
	srv, err := New(eng, Options{MaxBatch: 8, Window: 200 * time.Microsecond, PipelineDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	qs := randomQueries(t, eng.Spec(), 16, 41)
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, closed := 0, 0
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				_, err := srv.Submit(context.Background(), qs[g])
				mu.Lock()
				switch {
				case err == nil:
					ok++
				case errors.Is(err, ErrServerClosed):
					closed++
				default:
					t.Errorf("unexpected error: %v", err)
				}
				mu.Unlock()
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if ok == 0 {
		t.Error("no request served before close")
	}
	if closed == 0 {
		t.Error("no request observed the closed server")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), qs[0]); !errors.Is(err, ErrServerClosed) {
		t.Errorf("submit after close = %v, want ErrServerClosed", err)
	}
}

// TestShardsClusterCapacityValidated pins the caller-built-cluster wrap rule:
// a tier whose shard planes are smaller than the server's MaxBatch would
// overrun them at gather time, so New must reject the pairing up front.
func TestShardsClusterCapacityValidated(t *testing.T) {
	eng := testEngine(t)
	clu, err := cluster.New(eng, cluster.Options{Shards: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	if _, err := New(clu, Options{MaxBatch: 8, Shards: 2}); err == nil {
		t.Fatal("undersized cluster planes accepted")
	}
	// A matching capacity is accepted and served on the caller's tier.
	srv, err := New(clu, Options{MaxBatch: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Cluster == nil || st.Cluster.Shards != 2 {
		t.Fatalf("caller-built cluster not surfaced in stats: %+v", st.Cluster)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The caller still owns the tier: it must remain usable after the
	// server closed.
	qs := randomQueries(t, eng.Spec(), 2, 1)
	if _, err := clu.InferBatch(qs, nil, nil); err != nil {
		t.Fatalf("caller-owned cluster unusable after server close: %v", err)
	}
}
