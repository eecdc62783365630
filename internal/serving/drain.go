package serving

import (
	"runtime"
	"sync"
	"time"

	"microrec/internal/core"
	"microrec/internal/embedding"
)

// The drains. A formed batch is served on one pre-sized plane by three stage
// steps in datapath order — gather, dense and tail — and both drains run
// exactly these steps; they differ only in scheduling:
//
//   - the staged drain (the default) runs one goroutine per step over a ring
//     of Depth planes, so while batch i occupies the GEMM stage, batch i+1's
//     gather is already running on the next plane and memory latency hides
//     behind compute — the software analogue of the paper's deeply pipelined
//     dataflow (§4.1);
//   - the worker pool (Options.Pipeline.WorkerPool) runs Depth workers, each
//     owning one plane and calling the three steps back to back.
//
// The staged drain's ring is a marked graph whose tokens are planes:
//
//	free ─► batcher ─► [gather] ─► [dense GEMM] ─► [tail ► futures] ─┐
//	  ▲                                                              │
//	  └─────────────────────── plane recycled ◄──────────────────────┘
//
// The batcher takes a free plane before it dispatches, so a slow stage's
// backpressure reaches it, and the steady-state batch interval is the slowest
// stage's service time, or the stages' sum over Depth when the ring binds
// first (serviceMeter.predictNS). The stage queues hold a full ring, so only
// taking a free plane ever blocks.

// Stage indices, in datapath order. They index a batch's stage stamps, the
// service meter's windows and the stage names in /stats.
const (
	stageGather = iota
	stageDense
	stageTail
	numStages
)

// plane is one batch slot of a drain: a pre-sized fixed-point batch plane,
// the query headers of the batch riding on it and its predictions.
type plane struct {
	scratch core.BatchScratch
	queries []embedding.Query // cap MaxBatch
	preds   []float32         // len MaxBatch
	pb      *planeBatch
}

// newPlane allocates one plane sized for MaxBatch queries.
func (s *Server) newPlane() *plane {
	n := s.opts.Batching.MaxBatch
	p := &plane{queries: make([]embedding.Query, 0, n), preds: make([]float32, n)}
	s.eng.EnsurePlane(&p.scratch, n)
	return p
}

// planeBatch is one formed micro-batch, from the batcher through a drain to
// its futures: the requests still being served, the dispatch stamp, the
// stage boundary stamps and the gather's cold-fault count. Each stage step
// writes its own stamps with plain stores — on three goroutines in the staged
// drain, ordered by the channel hand-offs between them — and the tail step
// reads them all.
// Batches are recycled through batchPool by the step that resolved their last
// request, so steady-state serving, tracing and metering allocate nothing.
type planeBatch struct {
	reqs       []*request
	dispatched time.Time
	stageStart [numStages]time.Time
	stageEnd   [numStages]time.Time
	coldFaults int64
}

var batchPool = sync.Pool{New: func() any { return new(planeBatch) }}

// release returns pb to the pool once every request in it has been resolved.
// The whole backing array is cleared, not just reqs' current length — the
// gather step's expiry filter shortens reqs in place — because the requests
// belong to their submitters again.
func (pb *planeBatch) release() {
	reqs := pb.reqs[:cap(pb.reqs)]
	clear(reqs)
	*pb = planeBatch{reqs: reqs[:0]}
	batchPool.Put(pb)
}

// stampFlushed stamps the batch's dispatch time, which floors the service
// meter's interval gap, and copies it to the batch's sampled requests, where
// it splits a span's queue wait (batch formation, including the wait for a
// plane or worker) from its batch wait (dispatch to service).
func (pb *planeBatch) stampFlushed() {
	pb.dispatched = time.Now()
	for _, r := range pb.reqs {
		if r.sampled {
			r.flushed = pb.dispatched
		}
	}
}

// batcher owns batch formation and dispatch. It is work-conserving: the drain
// being able to start service is the flush signal, not a clock. While the
// forming batch holds at least one request it is on offer — to the plane ring
// in the staged drain, to an idle worker's receive in the worker pool — and it
// keeps absorbing arrivals until the offer is taken. An idle server therefore
// dispatches a lone request at once, a busy one grows the batch for exactly
// as long as nothing can serve it, and at MaxBatch the batcher stops reading
// the submit queue, so backpressure reaches the queue Admission.Shed watches.
// (A runtime timer cannot do this job: armed in an idle process it fires
// after about 1.1 ms whatever sub-millisecond duration it was given.) On exit
// it closes its hand-off, and the drain behind it empties and stops.
func (s *Server) batcher() {
	defer s.wg.Done()
	if s.batches != nil {
		defer close(s.batches)
	} else {
		defer close(s.gatherQ)
	}
	pending := batchPool.Get().(*planeBatch)
	for in := s.submit; in != nil || len(pending.reqs) > 0; {
		// A nil channel disables its case: no offer while the batch is
		// empty, no intake once it is full (or the queue has closed).
		recv, ready, offer := in, s.free, s.batches
		if len(pending.reqs) == 0 {
			ready, offer = nil, nil
		} else if len(pending.reqs) >= s.opts.Batching.MaxBatch {
			recv = nil
		}
		select {
		case req, ok := <-recv:
			if ok {
				s.forming.Store(true)
				pending.reqs, ok = s.drainQueued(append(pending.reqs, req))
			}
			if !ok {
				in = nil
			}
			continue
		case p := <-ready:
			// The batch rides the plane; the gather step copies its query
			// headers on, after the expiry filter.
			pending.stampFlushed()
			p.pb = pending
			s.gatherQ <- p
		case offer <- pending:
		}
		s.forming.Store(false)
		pending = batchPool.Get().(*planeBatch)
	}
}

// worker is one worker-pool goroutine. It owns one plane and calls the three
// stage steps back to back on each batch it receives, each step starting at
// the stamp the previous one ended on, so a pool span has no inter-stage
// waits.
func (s *Server) worker() {
	defer s.wg.Done()
	p := s.newPlane()
	for pb := range s.batches {
		s.wpBusy.Add(1)
		pb.stampFlushed()
		p.pb = pb
		if t1, ok := s.gather(p, time.Now()); ok {
			s.tail(p, s.dense(p, t1))
		}
		s.wpBusy.Add(-1)
	}
}

// gatherLoop runs the gather step of the staged drain. A plane whose batch
// expired entirely goes straight back to the ring.
//
//microrec:noalloc
func (s *Server) gatherLoop() {
	defer s.wg.Done()
	defer close(s.denseQ)
	for p := range s.gatherQ {
		if _, ok := s.gather(p, time.Now()); ok {
			s.denseQ <- p
		} else {
			s.free <- p
		}
	}
}

// denseLoop runs the dense step of the staged drain: the hidden-layer blocked
// GEMM tower.
//
// The stage yields before it parks on an empty queue. A goroutine parked on a
// channel is woken into the run-next slot of the P that sends to it, which
// glues a replica's dense stage to the P running its gather stage, batcher
// and clients; with a replica per core, a core the host slows down (a busy
// sibling hyperthread, stolen time) then sets the pace of the whole closed
// loop. Yielding first leaves the stage on the global run queue for whichever
// P frees up. A stage whose queue is stocked never yields and keeps its core.
// DESIGN.md, "The dense stage yields before it parks", has the measurements.
//
//microrec:noalloc
func (s *Server) denseLoop() {
	defer s.wg.Done()
	defer close(s.tailQ)
	for {
		if len(s.denseQ) == 0 {
			runtime.Gosched()
		}
		p, ok := <-s.denseQ
		if !ok {
			return
		}
		s.dense(p, time.Now())
		s.tailQ <- p
	}
}

// tailLoop runs the tail step of the staged drain and recycles the plane.
//
//microrec:noalloc
func (s *Server) tailLoop() {
	defer s.wg.Done()
	for p := range s.tailQ {
		s.tail(p, time.Now())
		s.free <- p
	}
}

// gather is the first stage step, entered at t0. It is the last admission
// point before the batch's work is committed, after any time the batch spent
// waiting for a plane or behind the stage: it first resolves the requests
// that can no longer be served in time (resolveExpired) and copies the
// surviving requests' query headers onto the plane, index-aligned with
// pb.reqs so the tail step's predictions line up with them. If none survive,
// it releases the batch and reports false; otherwise it gathers and returns
// the stage's end stamp.
//
//microrec:noalloc
func (s *Server) gather(p *plane, t0 time.Time) (time.Time, bool) {
	pb := p.pb
	cutoff := t0.Add(time.Duration(s.meter.meanBatchNS()))
	queries := p.queries[:len(pb.reqs)]
	n := 0
	for _, r := range pb.reqs {
		if s.resolveExpired(r, cutoff) == nil {
			pb.reqs[n], queries[n] = r, r.q
			n++
		}
	}
	pb.reqs, p.queries = pb.reqs[:n], queries[:n]
	if n == 0 {
		pb.release()
		p.pb = nil
		return t0, false
	}
	s.eng.GatherIntoPlane(p.queries, &p.scratch)
	t1 := time.Now()
	pb.stageStart[stageGather], pb.stageEnd[stageGather] = t0, t1
	pb.coldFaults = p.scratch.ColdFaults()
	return t1, true
}

// dense is the second stage step, entered at t0; it returns its end stamp.
//
//microrec:noalloc
func (s *Server) dense(p *plane, t0 time.Time) time.Time {
	s.eng.DenseFromPlane(len(p.queries), &p.scratch)
	t1 := time.Now()
	p.pb.stageStart[stageDense], p.pb.stageEnd[stageDense] = t0, t1
	return t1
}

// tail is the last stage step, entered at t0: the output layer, then the
// batch is metered before complete resolves any future — so a Stats call
// racing a just-returned Submit sees the batch — and released. The plane
// drops its query references, so a free plane pins no request's memory.
//
//microrec:noalloc
func (s *Server) tail(p *plane, t0 time.Time) {
	pb, b := p.pb, len(p.queries)
	s.eng.TailFromPlane(b, &p.scratch, p.preds[:b])
	pb.stageStart[stageTail], pb.stageEnd[stageTail] = t0, time.Now()
	s.meter.record(pb)
	s.complete(pb, p.preds[:b])
	pb.release()
	p.pb = nil
	clear(p.queries)
	p.queries = p.queries[:0]
}
