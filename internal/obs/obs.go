// Package obs implements the serving stack's observability primitives: an
// always-on, low-overhead flight recorder of per-request span records, the
// Chrome/Perfetto trace-event writer shared by the live and simulated
// tracers, a minimal Prometheus text-exposition writer, and build/version
// provenance.
//
// The flight recorder answers the question aggregate /stats cannot: when a
// p99 blows past the SLA, *which* stage ate the budget for *which* request.
// MicroRec's end-to-end claim is that latency decomposes into overlappable
// stage latencies (§4.1, §5.3); the recorder captures that decomposition per
// request from live traffic — queue wait, batch wait, gather (with its
// cold-tier faults), dense GEMM, tail — into a fixed-size power-of-two ring
// written lock-free via atomic slot claim.
// Head-sampling (record every Nth request) keeps the unsampled hot path at a
// single atomic increment.
package obs

import (
	"sync/atomic"
	"time"
)

// Span stage verdicts: how the request left the server.
const (
	// VerdictOK is a served request (its future carried a prediction).
	VerdictOK uint8 = iota
	// VerdictExpired is a deadline drop: the serving deadline passed before
	// (or during the wait for) service, no gather/GEMM was spent.
	VerdictExpired
	// VerdictCanceled is a context cancellation observed before service: at
	// the admission gate or at plane-fill time.
	VerdictCanceled
	// VerdictShed is a fast-fail admission rejection (queue full).
	VerdictShed
	// VerdictError is an engine failure during batch service.
	VerdictError
)

// VerdictName returns the label /trace and /metrics use for a verdict.
func VerdictName(v uint8) string {
	switch v {
	case VerdictOK:
		return "ok"
	case VerdictExpired:
		return "expired"
	case VerdictCanceled:
		return "canceled"
	case VerdictShed:
		return "shed"
	default:
		return "error"
	}
}

// Span is one sampled request's stage decomposition. All stage fields are
// durations in nanoseconds; adjacent stages are contiguous (each wait starts
// where the previous stage ended), so their sum tracks EndToEndNS up to the
// final future-resolution overhead. Both drains populate the same segments.
type Span struct {
	// ID is the recorder's claim sequence number (1-based, monotone).
	ID uint64 `json:"id"`
	// Start is the request's enqueue time in unix nanoseconds.
	Start int64 `json:"start_unix_ns"`
	// EndToEndNS is submit-to-future-resolution wall time.
	EndToEndNS int64 `json:"e2e_ns"`
	// QueueNS is enqueue → micro-batch flush (time spent forming a batch).
	QueueNS int64 `json:"queue_ns"`
	// BatchWaitNS is flush → service start: plane acquisition under
	// backpressure and the deadline-drop filter.
	BatchWaitNS int64 `json:"batch_wait_ns"`
	// GatherNS / DenseNS / TailNS are the plane's stage service times;
	// DenseWaitNS / TailWaitNS the inter-stage queue waits between them
	// (the pipelined drain's hand-offs; near zero in the worker pool).
	GatherNS    int64 `json:"gather_ns"`
	DenseWaitNS int64 `json:"dense_wait_ns"`
	DenseNS     int64 `json:"dense_ns"`
	TailWaitNS  int64 `json:"tail_wait_ns"`
	TailNS      int64 `json:"tail_ns"`
	// Batch is the size of the micro-batch that carried the request.
	Batch int32 `json:"batch"`
	// Replica is the 1-based id of the serving replica that carried the
	// request when the server runs behind the replicated router tier
	// (Options.Router.ReplicaID); 0 on an unrouted server.
	Replica int32 `json:"replica"`
	// ColdFaults counts embedding rows the batch's gather read from the
	// tiered store's cold file.
	ColdFaults int32 `json:"cold_faults"`
	// Verdict is the request's deadline verdict (VerdictOK..VerdictError).
	Verdict uint8 `json:"verdict"`
}

// StageSumNS returns the sum of the span's contiguous stage segments — the
// figure the monotonicity/decomposition property tests compare against
// EndToEndNS (the residue is the future-resolution overhead after the tail).
func (s Span) StageSumNS() int64 {
	return s.QueueNS + s.BatchWaitNS + s.GatherNS + s.DenseWaitNS +
		s.DenseNS + s.TailWaitNS + s.TailNS
}

// spanWords is the fixed word count of an encoded span (one atomic slot).
const spanWords = 13

// encode packs the span into the slot word layout. ID is not stored — the
// claim sequence that selected the slot is the ID, and decode restores it.
//
//microrec:noalloc
func (s *Span) encode(w *[spanWords]int64) {
	w[0] = s.Start
	w[1] = s.EndToEndNS
	w[2] = s.QueueNS
	w[3] = s.BatchWaitNS
	w[4] = s.GatherNS
	w[5] = s.DenseWaitNS
	w[6] = s.DenseNS
	w[7] = s.TailWaitNS
	w[8] = s.TailNS
	w[9] = int64(s.Batch)
	w[10] = int64(s.ColdFaults)
	w[11] = int64(s.Verdict)
	w[12] = int64(s.Replica)
}

func decodeSpan(id uint64, w *[spanWords]int64) Span {
	return Span{
		ID:          id,
		Start:       w[0],
		EndToEndNS:  w[1],
		QueueNS:     w[2],
		BatchWaitNS: w[3],
		GatherNS:    w[4],
		DenseWaitNS: w[5],
		DenseNS:     w[6],
		TailWaitNS:  w[7],
		TailNS:      w[8],
		Batch:       int32(w[9]),
		ColdFaults:  int32(w[10]),
		Verdict:     uint8(w[11]),
		Replica:     int32(w[12]),
	}
}

// slot is one ring entry: a seqlock version counter (odd while a writer owns
// the slot) over the span's word array. Every word is an atomic so the
// protocol is race-detector-clean: a reader that copies the words while a
// writer is mid-store sees the version change and discards the copy.
type slot struct {
	seq   atomic.Uint64
	words [spanWords]atomic.Int64
}

// Recorder is the flight recorder: a power-of-two ring of span slots written
// lock-free. Writers claim a slot by bumping the global claim counter (the
// span ID); the slot's seqlock serializes the rare wraparound collision where
// two claims land on the same slot. Readers snapshot without blocking
// writers.
type Recorder struct {
	mask     uint64
	sample   uint64
	arrivals atomic.Uint64 // head-sampling counter: one Add per Sample call
	claimed  atomic.Uint64 // slot claim sequence == last span ID
	slots    []slot
}

// NewRecorder builds a recorder with at least `size` slots (rounded up to a
// power of two, minimum 64) recording every `sample`-th request (minimum 1 =
// every request).
func NewRecorder(size, sample int) *Recorder {
	n := 64
	for n < size {
		n <<= 1
	}
	if sample < 1 {
		sample = 1
	}
	return &Recorder{
		mask:   uint64(n - 1),
		sample: uint64(sample),
		slots:  make([]slot, n),
	}
}

// Sample is the head-sampling decision, taken once per request at admission.
// The unsampled path is one atomic increment plus a modulo — the "few
// nanoseconds" the hot path pays per request.
//
//microrec:noalloc
func (r *Recorder) Sample() bool {
	n := r.arrivals.Add(1)
	return r.sample == 1 || n%r.sample == 0
}

// Record writes one span into the ring, claiming the next slot. Safe for
// concurrent writers; never blocks a reader. The span's ID field is assigned
// from the claim sequence (any caller-set value is overwritten).
//
//microrec:noalloc
func (r *Recorder) Record(s Span) uint64 {
	id := r.claimed.Add(1)
	sl := &r.slots[(id-1)&r.mask]
	// Claim the slot's seqlock. Contention here needs two writers a full
	// ring apart to land on the same slot simultaneously — vanishingly rare
	// at ring sizes ≥ 64, so a bare CAS loop is fine.
	for {
		v := sl.seq.Load()
		if v&1 == 0 && sl.seq.CompareAndSwap(v, v+1) {
			break
		}
	}
	var w [spanWords]int64
	s.encode(&w)
	for i := range w {
		sl.words[i].Store(w[i])
	}
	sl.seq.Add(1)
	return id
}

// Stats is the recorder's own counters, surfaced in /stats and /metrics.
type Stats struct {
	// RingSize is the span ring's slot count; SampleEvery the head-sampling
	// rate (1 = every request).
	RingSize    int `json:"ring_size"`
	SampleEvery int `json:"sample_every"`
	// Arrivals counts sampling decisions (one per request); Recorded the
	// spans written to the ring.
	Arrivals uint64 `json:"arrivals"`
	Recorded uint64 `json:"recorded"`
}

// Stats snapshots the recorder's counters.
func (r *Recorder) Stats() Stats {
	return Stats{
		RingSize:    len(r.slots),
		SampleEvery: int(r.sample),
		Arrivals:    r.arrivals.Load(),
		Recorded:    r.claimed.Load(),
	}
}

// Snapshot copies up to `last` of the newest stable spans out of the ring
// (last <= 0 means the whole ring), newest first in the walk but returned in
// ascending ID order. When since is non-zero, spans that started before it
// are dropped. Slots mid-write or overwritten during the walk are skipped —
// the recorder never blocks a writer to satisfy a reader.
func (r *Recorder) Snapshot(last int, since time.Time) []Span {
	n := len(r.slots)
	if last <= 0 || last > n {
		last = n
	}
	var sinceNS int64
	if !since.IsZero() {
		sinceNS = since.UnixNano()
	}
	head := r.claimed.Load()
	out := make([]Span, 0, last)
	for i := 0; i < n && len(out) < last; i++ {
		id := head - uint64(i)
		if id == 0 || id > head { // ring younger than full, or wrapped past 0
			break
		}
		sl := &r.slots[(id-1)&r.mask]
		v := sl.seq.Load()
		if v&1 == 1 {
			continue // writer mid-store
		}
		var w [spanWords]int64
		for j := range w {
			w[j] = sl.words[j].Load()
		}
		if sl.seq.Load() != v {
			continue // torn read: a writer claimed the slot during the copy
		}
		s := decodeSpan(id, &w)
		if sinceNS != 0 && s.Start < sinceNS {
			continue
		}
		out = append(out, s)
	}
	// The walk collected newest→oldest; return oldest→newest.
	for a, b := 0, len(out)-1; a < b; a, b = a+1, b-1 {
		out[a], out[b] = out[b], out[a]
	}
	return out
}
