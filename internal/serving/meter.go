package serving

import (
	"sync"
	"sync/atomic"
	"time"

	"microrec/internal/metrics"
)

// meterWindow is the number of recent batches the service meter's rolling
// windows retain.
const meterWindow = 512

// stageNames label the drain's stages in /stats and /metrics.
var stageNames = [numStages]string{"gather", "dense-gemm", "tail"}

// serviceMeter is the server's one instrument for batch service time. Both
// drains feed it from the tail step with the stage stamps every batch
// already carries.
type serviceMeter struct {
	// Lifetime delivered batches and their summed stage time, read per batch
	// by the deadline-drop headroom.
	completed atomic.Uint64
	busyNS    atomic.Int64
	stage     [numStages]*metrics.Rolling // per-batch service, ns
	// interval holds per-completion busy gaps, ns: completion minus the later
	// of the previous completion and the batch's dispatch. The dispatch floor
	// leaves out idle time waiting for arrivals (load, not the drain), so the
	// gaps telescope to busy span per completion even when the scheduler
	// makes completions burst.
	interval *metrics.Rolling
	mu       sync.Mutex // guards lastDone: pool workers deliver concurrently
	lastDone time.Time
	depth    int  // batches in service at once
	staged   bool // one goroutine per stage (the staged drain)
}

func newServiceMeter(depth int, staged bool) *serviceMeter {
	m := &serviceMeter{interval: metrics.NewRolling(meterWindow), depth: depth, staged: staged}
	for i := range m.stage {
		m.stage[i] = metrics.NewRolling(meterWindow)
	}
	return m
}

// record meters one served batch from its stage stamps.
func (m *serviceMeter) record(pb *planeBatch) {
	var busy time.Duration
	for i, w := range m.stage {
		d := pb.stageEnd[i].Sub(pb.stageStart[i])
		busy += d
		w.Observe(pb.stageEnd[i], float64(d))
	}
	m.busyNS.Add(int64(busy))
	m.completed.Add(1)
	done := pb.stageEnd[stageTail]
	m.mu.Lock()
	from := m.lastDone
	if from.Before(pb.dispatched) {
		from = pb.dispatched
	}
	if done.After(m.lastDone) {
		m.lastDone = done
	}
	m.mu.Unlock()
	// A pool worker delivering after a later completion adds no busy time.
	m.interval.Observe(done, float64(max(done.Sub(from), 0)))
}

// meanBatchNS is the lifetime mean batch service time — gather entry to tail
// exit, summed over the stages — or 0 before any batch has completed. It is
// the deadline-drop headroom: a request whose deadline lands within one mean
// service of now cannot finish in time, so starting its gather only
// manufactures a late answer.
func (m *serviceMeter) meanBatchNS() float64 {
	n := m.completed.Load()
	if n == 0 {
		return 0
	}
	return float64(m.busyNS.Load()) / float64(n)
}

// means returns each stage's rolling mean service time, ns.
func (m *serviceMeter) means() (ns [numStages]float64) {
	for i, w := range m.stage {
		ns[i] = w.Mean()
	}
	return ns
}

// snapshot fills the meter's part of the pipeline section — completions,
// per-stage statistics, the measured and serial intervals — and returns the
// stage means it read.
func (m *serviceMeter) snapshot(now time.Time) (p *PipelineStats, means [numStages]float64) {
	p = &PipelineStats{
		Completed:          m.completed.Load(),
		Stages:             make([]StageStats, numStages),
		MeasuredIntervalUS: m.interval.Snapshot(now).Summary.Mean / 1e3,
	}
	for i, w := range m.stage {
		s := w.Snapshot(now)
		p.Stages[i] = StageStats{
			Name:          stageNames[i],
			Batches:       s.Total,
			MeanServiceUS: s.Summary.Mean / 1e3,
			P99ServiceUS:  s.Summary.P99 / 1e3,
			Occupancy:     min(s.RatePerSec*s.Summary.Mean/1e9, 1),
		}
		p.SerialIntervalUS += s.Summary.Mean / 1e3
		means[i] = s.Summary.Mean
	}
	return p, means
}

// predictNS is the drain's steady-state batch interval in closed form over
// mean stage service times (0 before any batch has been metered). depth
// batches are in service at once and each needs the sum of the stage times,
// so the interval is at least Σ/depth — all a pool of depth run-to-completion
// workers is bound by. The staged pipeline runs each stage on one goroutine,
// so its interval is also at least the slowest stage: max(max_i s_i,
// Σ/depth). The second term is the plane ring binding before any stage does,
// which at three stages happens only at depth 2.
func (m *serviceMeter) predictNS(means [numStages]float64) float64 {
	var sum, slowest float64
	for _, s := range means {
		sum += s
		slowest = max(slowest, s)
	}
	ring := sum / float64(m.depth)
	if !m.staged {
		return ring
	}
	return max(slowest, ring)
}

// PipelineStats is the /stats view of the drain's service meter, in either
// drain: batches in service, per-stage service times, and the measured vs
// predicted vs serial steady-state batch interval.
type PipelineStats struct {
	// Depth is the number of batches in service (Options.Pipeline.Depth);
	// InFlight how many are now: occupied planes, or busy pool workers.
	Depth    int `json:"depth"`
	MaxBatch int `json:"max_batch"`
	InFlight int `json:"in_flight"`
	// Completed is the lifetime count of delivered batches.
	Completed uint64       `json:"completed"`
	Stages    []StageStats `json:"stages"`
	// MeasuredIntervalUS is the rolling mean busy gap per completion (see
	// serviceMeter.interval): the drain's capability, not its load.
	MeasuredIntervalUS float64 `json:"measured_interval_us"`
	// PredictedIntervalUS is the closed form over the mean stage times
	// (serviceMeter.predictNS). Both are 0 until a batch has completed.
	PredictedIntervalUS float64 `json:"predicted_interval_us"`
	// SerialIntervalUS is the sum of the mean stage times: the interval of
	// one batch at a time. Measured < Serial demonstrates overlap.
	SerialIntervalUS float64 `json:"serial_interval_us"`
}

// StageStats is one stage's service statistics: lifetime batches, rolling
// mean and p99 per-batch service time, and occupancy — the fraction of recent
// wall time the stage spent busy (batch rate x mean service, capped at 1).
type StageStats struct {
	Name          string  `json:"name"`
	Batches       uint64  `json:"batches"`
	MeanServiceUS float64 `json:"mean_service_us"`
	P99ServiceUS  float64 `json:"p99_service_us"`
	Occupancy     float64 `json:"occupancy"`
}
