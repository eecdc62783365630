package serving

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/model"
)

// slowEngine is a deterministic Engine fake whose dense stage sleeps a fixed
// service time per batch. Overload tests saturate the bounded queue against it
// without depending on host speed; every prediction is 0.5.
//
// With gate set it is also a gate engine: every batch blocks in its gather
// stage until the gate yields a token or is closed, so a test holds the
// drain's planes or workers for exactly as long as it needs.
type slowEngine struct {
	service time.Duration
	gate    chan struct{}
	batches atomic.Uint64 // batches that reached the datapath
	served  atomic.Uint64 // queries that reached the datapath
}

func (e *slowEngine) wait() {
	if e.gate != nil {
		<-e.gate
	}
}

func (e *slowEngine) ValidateQuery(q embedding.Query) error {
	if len(q) == 0 {
		return errors.New("slowEngine: empty query")
	}
	return nil
}

func (e *slowEngine) EnsurePlane(s *core.BatchScratch, b int) {}

func (e *slowEngine) GatherIntoPlane(queries []embedding.Query, s *core.BatchScratch) { e.wait() }

func (e *slowEngine) DenseFromPlane(b int, s *core.BatchScratch) {
	time.Sleep(e.service)
}

func (e *slowEngine) TailFromPlane(b int, s *core.BatchScratch, dst []float32) {
	e.batches.Add(1)
	e.served.Add(uint64(b))
	for i := range dst[:b] {
		dst[i] = 0.5
	}
}

func (e *slowEngine) Spec() *model.Spec { return slowSpec }

// slowSpec is the one-table model slowQuery fits; admission calibration draws
// its batch from it.
var slowSpec = &model.Spec{
	Name:   "slow",
	Tables: []model.TableSpec{{ID: 0, Name: "t", Rows: 2, Dim: 1, Lookups: 1}},
	Hidden: []int{1},
}

var slowQuery = embedding.Query{[]int64{1}}

// TestShedUnderOverload saturates a tiny bounded queue behind a held drain
// and checks the shed path: every ErrOverloaded returns while the drain is
// still held — so shedding never waits on service — the shed counter matches
// the failures, and every admitted request still completes. Deterministic:
// with both planes held and MaxBatch 1, exactly one request forms and the
// queue's two slots fill; the rest of the burst must be shed.
func TestShedUnderOverload(t *testing.T) {
	const queueDepth, burst = 2, 64
	eng := &slowEngine{gate: make(chan struct{})}
	srv := newServer(t, eng, Options{
		Batching:  BatchingOptions{MaxBatch: 1},
		Admission: AdmissionOptions{QueueDepth: queueDepth, Shed: true},
		Pipeline:  PipelineOptions{Depth: 2},
	})
	var (
		wg, burstWG    sync.WaitGroup
		admitted, shed atomic.Uint64
		gateOpen       atomic.Bool
	)
	holdDrain(t, srv, &wg)
	for i := 0; i < burst; i++ {
		burstWG.Add(1)
		go func() {
			defer burstWG.Done()
			switch _, err := srv.Submit(context.Background(), slowQuery); {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, ErrOverloaded):
				if gateOpen.Load() {
					t.Error("a shed returned only after the drain was released — the shed path waited on service")
				}
				shed.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	const wantShed = burst - 1 - queueDepth
	waitFor(t, "every shed to return while the drain is held", func() bool { return shed.Load() == wantShed })
	gateOpen.Store(true)
	close(eng.gate)
	burstWG.Wait()
	wg.Wait()
	if admitted.Load() != 1+queueDepth || shed.Load() != wantShed {
		t.Errorf("admitted %d, shed %d; want %d and %d", admitted.Load(), shed.Load(), 1+queueDepth, wantShed)
	}
	st := srv.Stats()
	if st.Admission.Shed != shed.Load() {
		t.Errorf("stats shed = %d, submitters saw %d", st.Admission.Shed, shed.Load())
	}
	if !st.Admission.Shedding || st.Admission.QueueCapacity != queueDepth {
		t.Errorf("admission stats = %+v", st.Admission)
	}
	// Every query the engine served corresponds to an admitted submitter
	// (the burst's or holdDrain's).
	if want := admitted.Load() + uint64(srv.opts.Pipeline.Depth); eng.served.Load() != want {
		t.Errorf("engine served %d queries, want %d admitted", eng.served.Load(), want)
	}
}

// TestShedNoDroppedAcceptedOnClose races Close against a shedding burst:
// every Submit must resolve as served, shed, or closed — none may hang, and
// no accepted request may be silently dropped.
func TestShedNoDroppedAcceptedOnClose(t *testing.T) {
	eng := &slowEngine{service: 5 * time.Millisecond}
	srv, err := New(eng, Options{
		Batching:  BatchingOptions{MaxBatch: 2},
		Admission: AdmissionOptions{QueueDepth: 4, Shed: true},
		Pipeline:  PipelineOptions{Depth: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg                   sync.WaitGroup
		ok, shed, closedErrs atomic.Uint64
	)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				_, err := srv.Submit(context.Background(), slowQuery)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, ErrServerClosed):
					closedErrs.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}()
	}
	time.Sleep(3 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Error("no request served before close")
	}
	// Every admitted request reached the engine: accepted-but-dropped would
	// show up as ok < served… or as a hung Submit, which wg.Wait catches.
	if eng.served.Load() != ok.Load() {
		t.Errorf("engine served %d, %d submitters got results", eng.served.Load(), ok.Load())
	}
	if _, err := srv.Submit(context.Background(), slowQuery); !errors.Is(err, ErrServerClosed) {
		t.Errorf("submit after close = %v, want ErrServerClosed", err)
	}
}

// TestDeadlineDropsSkipWork queues a wave behind a slow first batch with a
// short SLA: requests whose deadline passes while queued must fail with
// ErrExpired without reaching the engine, and the drops must be counted.
func TestDeadlineDropsSkipWork(t *testing.T) {
	eng := &slowEngine{service: 30 * time.Millisecond}
	srv := newServer(t, eng, Options{
		Batching:  BatchingOptions{MaxBatch: 1},
		Admission: AdmissionOptions{QueueDepth: 32, SLA: 5 * time.Millisecond},
		Pipeline:  PipelineOptions{Depth: 2},
	})
	const wave = 12
	var (
		wg          sync.WaitGroup
		ok, expired atomic.Uint64
		otherErrs   atomic.Uint64
	)
	for i := 0; i < wave; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := srv.Submit(context.Background(), slowQuery)
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrExpired):
				expired.Add(1)
			default:
				otherErrs.Add(1)
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if expired.Load() == 0 {
		t.Fatal("a 12-query wave at 30ms/batch with a 5ms SLA expired nothing")
	}
	st := srv.Stats()
	// Work conservation: the engine served exactly the successes plus the
	// late completions (requests in flight before the headroom estimate
	// warmed); every other expiration was dropped before gather/GEMM.
	if eng.served.Load() != ok.Load()+st.Admission.LateCompletions {
		t.Errorf("engine served %d queries; %d succeeded + %d late — dropped requests burned work",
			eng.served.Load(), ok.Load(), st.Admission.LateCompletions)
	}
	if st.Admission.DeadlineDrops+st.Admission.LateCompletions != expired.Load() {
		t.Errorf("stats drops %d + late %d != %d submitter expirations",
			st.Admission.DeadlineDrops, st.Admission.LateCompletions, expired.Load())
	}
	if st.Admission.DeadlineDrops == 0 {
		t.Error("no request was dropped before service")
	}
	if st.Admission.SLAMS != 5 {
		t.Errorf("stats SLA = %vms, want 5", st.Admission.SLAMS)
	}
}

// TestCancelDropsSkipWork cancels waiters after enqueue and checks the batch
// former skips them: the engine sees only the live request, and the drop is
// counted as a cancellation, not a deadline expiry.
func TestCancelDropsSkipWork(t *testing.T) {
	eng := &slowEngine{service: 25 * time.Millisecond}
	srv := newServer(t, eng, Options{
		Batching:  BatchingOptions{MaxBatch: 1},
		Admission: AdmissionOptions{QueueDepth: 16},
		Pipeline:  PipelineOptions{Depth: 2},
	})
	// Request 0 occupies the engine; a wave queues behind it and is
	// cancelled while waiting. A wave member may already have passed the
	// plane-fill check when the cancel fires (one per plane) — the
	// conservation law below pins that every other member was dropped
	// without touching the engine. The cancel must wait until every member
	// is enqueued: one that reaches the admission gate after it may take
	// its ctx.Done case instead of the queue send and return Canceled
	// without ever being queued, counted neither as a drop nor as served.
	var first sync.WaitGroup
	first.Add(1)
	go func() {
		defer first.Done()
		if _, err := srv.Submit(context.Background(), slowQuery); err != nil {
			t.Errorf("head request: %v", err)
		}
	}()
	waitFor(t, "the head request in service", func() bool {
		return srv.QueueLen() == 0 && srv.InFlightBatches() == 1
	})
	const wave = 8
	ctx, cancel := context.WithCancel(context.Background())
	var waveWG sync.WaitGroup
	for i := 0; i < wave; i++ {
		waveWG.Add(1)
		go func() {
			defer waveWG.Done()
			if _, err := srv.Submit(ctx, slowQuery); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled waiter = %v, want context.Canceled", err)
			}
		}()
	}
	// At MaxBatch 1 every enqueued request is queued, on offer or in a
	// plane: one batch each.
	waitFor(t, "every wave member enqueued", func() bool {
		return srv.QueueLen()+srv.InFlightBatches() == wave+1
	})
	cancel()
	waveWG.Wait()
	first.Wait()
	// Wait for every wave member to be accounted for: dropped at plane-fill
	// time or (if it slipped into a plane before the cancel) served.
	deadline := time.Now().Add(5 * time.Second)
	accounted := func() (drops, waveServed uint64) {
		drops = srv.Stats().Admission.CancelDrops
		waveServed = eng.served.Load() - 1 // minus the head request
		return
	}
	for {
		drops, waveServed := accounted()
		if drops+waveServed >= wave || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := srv.Stats()
	drops, waveServed := accounted()
	if drops+waveServed != wave {
		t.Errorf("cancel drops %d + served wave members %d != %d", drops, waveServed, wave)
	}
	if drops == 0 {
		t.Error("no cancelled request was dropped at plane-fill time")
	}
	// At most one per plane can slip through.
	if waveServed > 2 {
		t.Errorf("engine served %d cancelled wave members — the batch former is not checking contexts", waveServed)
	}
	if st.Admission.DeadlineDrops != 0 {
		t.Errorf("deadline drops = %d, want 0 (these were cancellations)", st.Admission.DeadlineDrops)
	}
}

// TestSubmitDoesNotHoldLockAcrossSend pins the Close-vs-backpressure
// decoupling: with the queue full and no shed, Close must still complete
// promptly (draining the blocked senders) instead of deadlocking behind a
// reader that holds the lock across its blocking send.
func TestSubmitDoesNotHoldLockAcrossSend(t *testing.T) {
	eng := &slowEngine{service: 10 * time.Millisecond}
	srv, err := New(eng, Options{
		Batching:  BatchingOptions{MaxBatch: 1},
		Admission: AdmissionOptions{QueueDepth: 1},
		Pipeline:  PipelineOptions{Depth: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := srv.Submit(context.Background(), slowQuery)
			if err != nil && !errors.Is(err, ErrServerClosed) {
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	time.Sleep(2 * time.Millisecond) // senders are blocked on the full queue
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not complete while submitters were blocked on a full queue")
	}
	wg.Wait()
}

// TestWorkerPoolDeadlineDrops runs the deadline-drop path through the
// worker-pool drain too — both drain modes must skip expired work.
func TestWorkerPoolDeadlineDrops(t *testing.T) {
	eng := &slowEngine{service: 30 * time.Millisecond}
	srv := newServer(t, eng, Options{
		Batching:  BatchingOptions{MaxBatch: 1},
		Admission: AdmissionOptions{QueueDepth: 16, SLA: 5 * time.Millisecond},
		Pipeline:  PipelineOptions{Depth: 1, WorkerPool: true},
	})
	const wave = 10
	var (
		wg          sync.WaitGroup
		ok, expired atomic.Uint64
	)
	for i := 0; i < wave; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := srv.Submit(context.Background(), slowQuery)
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrExpired):
				expired.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if expired.Load() == 0 {
		t.Fatal("worker-pool drain expired nothing")
	}
	st := srv.Stats()
	if eng.served.Load() != ok.Load()+st.Admission.LateCompletions {
		t.Errorf("engine served %d; %d succeeded + %d late — dropped requests burned worker time",
			eng.served.Load(), ok.Load(), st.Admission.LateCompletions)
	}
	if st.Admission.DeadlineDrops+st.Admission.LateCompletions != expired.Load() {
		t.Errorf("stats drops %d + late %d != %d submitter expirations",
			st.Admission.DeadlineDrops, st.Admission.LateCompletions, expired.Load())
	}
	if st.Admission.DeadlineDrops == 0 {
		t.Error("no request was dropped before service")
	}
}

// TestAdmissionOptionValidation covers the new option edges.
func TestAdmissionOptionValidation(t *testing.T) {
	if err := (Options{Admission: AdmissionOptions{SLA: -time.Second}}).withDefaults().Validate(); err == nil {
		t.Error("negative SLA: want error")
	}
	// Shed with defaults is valid.
	o := Options{Admission: AdmissionOptions{Shed: true}}.withDefaults()
	if err := o.Validate(); err != nil {
		t.Errorf("shed defaults: %v", err)
	}
	// A typed-nil *core.Engine must be rejected like an untyped nil.
	if _, err := New((*core.Engine)(nil), Options{}); err == nil {
		t.Error("typed-nil engine: want error")
	}
}

// TestRetryAfterAndCapacity checks the knee estimate and backoff hint in both
// drains: both come from the predicted interval once a batch has been
// metered, and the capacity estimate tracks the engine's service rate. The
// slow fake's 20ms dense stage bounds the pipeline at 50 batches/s; two pool
// workers running its stages back to back sustain MaxBatch·Depth/Σ = 100/s.
func TestRetryAfterAndCapacity(t *testing.T) {
	for _, tc := range []struct {
		drain      string
		workerPool bool
		interval   time.Duration
	}{{"pipeline", false, 20 * time.Millisecond}, {"worker-pool", true, 10 * time.Millisecond}} {
		t.Run(tc.drain, func(t *testing.T) {
			eng := &slowEngine{service: 20 * time.Millisecond}
			srv := newServer(t, eng, Options{
				Batching: BatchingOptions{MaxBatch: 1},
				Pipeline: PipelineOptions{Depth: 2, WorkerPool: tc.workerPool},
			})
			if got := srv.CapacityQPS(); got != 0 {
				t.Errorf("capacity before traffic = %v, want 0", got)
			}
			// Before the first batch RetryAfter falls back to 1ms.
			if ra := srv.RetryAfter(); ra != time.Millisecond {
				t.Errorf("cold retry-after = %v, want the 1ms fallback", ra)
			}
			for i := 0; i < 6; i++ {
				if _, err := srv.Submit(context.Background(), slowQuery); err != nil {
					t.Fatal(err)
				}
			}
			cap := srv.CapacityQPS()
			// Sleep overshoot only lengthens the measured stages, so the
			// estimate sits at or a little below the nominal rate.
			if want := 1e9 / float64(tc.interval); cap < 0.6*want || cap > 1.1*want {
				t.Errorf("capacity estimate %v qps, want about %v for a %v interval", cap, want, tc.interval)
			}
			if ra := srv.RetryAfter(); ra < tc.interval*3/4 || ra > 5*tc.interval {
				t.Errorf("warm retry-after = %v, want about one %v batch interval", ra, tc.interval)
			}
			// Stats reads the same meter: with no traffic in between, the knee
			// is the same number.
			if st := srv.Stats(); st.Admission.KneeQPS != cap {
				t.Errorf("stats knee = %v, CapacityQPS = %v", st.Admission.KneeQPS, cap)
			}
		})
	}
}
