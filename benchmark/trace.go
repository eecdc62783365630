package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"microrec"
)

// The traced pass measures the layers from outside: the engine handed to the
// server is wrapped so that each stage call records a span, and the clients
// record theirs. Nothing inside the program under test is instrumented.

const (
	stagePrefetch = iota
	stageGather
	stageDense
	stageTail
	numStages
)

var stageNames = [numStages]string{"prefetch", "gather", "dense", "tail"}

// span is one stage call. Plane identifies the batch plane the call worked
// on; the gather, dense and tail calls of one batch share it.
type span struct {
	Stage   uint8
	Replica uint8
	B       int32
	Plane   *microrec.BatchScratch
	Start   int64
	End     int64
}

// tracer collects spans into a buffer allocated before the run, so recording
// costs one atomic add and one store and never allocates.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	spans []span
	// poolOf maps a query's backing array to its pool index: the server
	// copies query headers into its planes but never the index arrays, so
	// the wrapper can name a batch's members without the server's help.
	poolOf map[*[]int64]int32
	// carried[i] is the gather span that last carried pool entry i. The
	// stage goroutine stores it before the reply is delivered and the
	// client loads it after, so each request learns its batch.
	carried []atomic.Int32
}

func newTracer(epoch time.Time, pool []microrec.Query, capacity int) *tracer {
	t := &tracer{
		epoch:   epoch,
		spans:   make([]span, capacity),
		poolOf:  make(map[*[]int64]int32, len(pool)),
		carried: make([]atomic.Int32, len(pool)),
	}
	for i, q := range pool {
		t.poolOf[&q[0]] = int32(i)
		t.carried[i].Store(-1)
	}
	return t
}

// gatherOf reports the gather span that carried pool entry idx, or -1 when
// the run is not traced.
func (t *tracer) gatherOf(idx int) int32 {
	if t == nil {
		return -1
	}
	return t.carried[idx].Load()
}

// begin reserves a span slot; slots are handed out in start order.
func (t *tracer) begin() (slot int64, start int64) {
	return t.next.Add(1) - 1, int64(time.Since(t.epoch))
}

func (t *tracer) end(slot int64, stage, replica uint8, b int, plane *microrec.BatchScratch, start int64) {
	if slot < int64(len(t.spans)) {
		t.spans[slot] = span{
			Stage: stage, Replica: replica, B: int32(b),
			Plane: plane, Start: start, End: int64(time.Since(t.epoch)),
		}
	}
}

// recorded returns the spans written and how many were dropped for want of
// room.
func (t *tracer) recorded() (spans []span, dropped int64) {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n - int64(len(t.spans))
	}
	return t.spans[:n], 0
}

// tracedEngine is the engine the traced pass serves on. Embedding the real
// engine promotes every method (and the Tiered capability) unchanged; only
// the three stage calls and the prefetch hook are overridden to record spans.
type tracedEngine struct {
	*microrec.Engine
	tr      *tracer
	replica uint8
}

func (e *tracedEngine) PrefetchBatch(queries []microrec.Query) {
	slot, t0 := e.tr.begin()
	e.Engine.PrefetchBatch(queries)
	e.tr.end(slot, stagePrefetch, e.replica, len(queries), nil, t0)
}

func (e *tracedEngine) GatherIntoPlane(queries []microrec.Query, s *microrec.BatchScratch) {
	slot, t0 := e.tr.begin()
	e.Engine.GatherIntoPlane(queries, s)
	e.tr.end(slot, stageGather, e.replica, len(queries), s, t0)
	for _, q := range queries {
		if idx, ok := e.tr.poolOf[&q[0]]; ok {
			e.tr.carried[idx].Store(int32(slot))
		}
	}
}

func (e *tracedEngine) DenseFromPlane(b int, s *microrec.BatchScratch) {
	slot, t0 := e.tr.begin()
	e.Engine.DenseFromPlane(b, s)
	e.tr.end(slot, stageDense, e.replica, b, s, t0)
}

func (e *tracedEngine) TailFromPlane(b int, s *microrec.BatchScratch, dst []float32) {
	slot, t0 := e.tr.begin()
	e.Engine.TailFromPlane(b, s, dst)
	e.tr.end(slot, stageTail, e.replica, b, s, t0)
}

// batch is one micro-batch reassembled from its spans. Durations are ns.
type batch struct {
	b                             int32
	prefetch, gather, dense, tail float64
	// first is when the batch's first stage call began, last when its tail
	// ended (0 while the batch has no tail span).
	first, last int64
}

func (b *batch) stageNS() float64 { return b.prefetch + b.gather + b.dense + b.tail }

// assemble groups spans into batches, keyed by the slot of each batch's
// gather span. Stage calls on one plane are strictly ordered (gather, dense,
// tail, then the plane is reused), and a prefetch runs on the gather
// goroutine immediately before the gather it serves, so walking the spans in
// start order with one open batch per plane and one pending prefetch per
// replica reassembles them.
func assemble(spans []span) map[int32]*batch {
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	var (
		batches  = make(map[int32]*batch)
		open     = make(map[*microrec.BatchScratch]*batch)
		prefetch = make(map[uint8]*span)
	)
	for _, slot := range order {
		s := &spans[slot]
		dur := float64(s.End - s.Start)
		switch s.Stage {
		case stagePrefetch:
			prefetch[s.Replica] = s
		case stageGather:
			b := &batch{b: s.B, gather: dur, first: s.Start}
			if p := prefetch[s.Replica]; p != nil {
				b.prefetch, b.first = float64(p.End-p.Start), p.Start
				delete(prefetch, s.Replica)
			}
			batches[slot], open[s.Plane] = b, b
		case stageDense:
			if b := open[s.Plane]; b != nil {
				b.dense = dur
			}
		case stageTail:
			if b := open[s.Plane]; b != nil {
				b.tail, b.last = dur, s.End
				delete(open, s.Plane)
			}
		}
	}
	return batches
}

// ledger is the per-layer account of one traced window.
type ledger struct {
	busy         [numStages]float64 // stage busy time / wall, summed over replicas
	denseUSBatch float64            // median dense span, µs
	meanBatch    float64
	waitP50US    float64 // latency minus the serving batch's stage time
	handoffP50US float64 // batch first-start to tail-end minus its stage time
	latP50US     float64
	tailUS       float64
	tailP        float64
	residual     float64
	unmatched    int // requests whose batch could not be reassembled
	dropped      int64
}

// account builds the ledger of a traced run. A request's latency splits
// exactly into the stage time of the batch that served it and the rest
// (queueing, the batch window, hand-offs between stage goroutines, the
// wake-up of the client): that rest is "wait". residual is what the ledger's
// medians fail to add up to: 1 - (p50 wait + p50 gather + p50 dense +
// p50 tail) / p50 latency. It is small only when the medians describe one
// typical request, which is the property a per-layer claim leans on.
//
// For the gather loop the dense and tail calls are the benchmark's own
// correctness work, outside the request, so only gather counts as its stage.
func account(tr *tracer, r *run, w workload) ledger {
	spans, dropped := tr.recorded()
	l := ledger{dropped: dropped}
	wall := float64(r.end - r.start)
	var dense, sizes []float64
	for i := range spans {
		s := &spans[i]
		lo, hi := max(s.Start, r.start), min(s.End, r.end)
		if hi <= lo {
			continue
		}
		l.busy[s.Stage] += float64(hi-lo) / wall
		switch s.Stage {
		case stageDense:
			dense = append(dense, float64(s.End-s.Start)/1e3)
		case stageGather:
			sizes = append(sizes, float64(s.B))
		}
	}
	l.denseUSBatch = median(dense)
	for _, b := range sizes {
		l.meanBatch += b
	}
	if len(sizes) > 0 {
		l.meanBatch /= float64(len(sizes))
	}

	batches := assemble(spans)
	var lats, waits, gathers, denses, tails []float64
	for i := range r.reqs {
		q := &r.reqs[i]
		b := batches[q.Gather]
		if b == nil || (w.replicas > 0 && b.last == 0) {
			l.unmatched++
			continue
		}
		g, d, t := b.prefetch+b.gather, b.dense, b.tail
		if w.replicas == 0 {
			d, t = 0, 0
		}
		total := float64(q.Done - q.Due)
		lats = append(lats, total/1e3)
		waits = append(waits, (total-g-d-t)/1e3)
		gathers = append(gathers, g/1e3)
		denses = append(denses, d/1e3)
		tails = append(tails, t/1e3)
	}
	l.latP50US = median(lats)
	l.waitP50US = median(waits)
	l.tailP = tailPercentile(len(lats))
	l.tailUS = percentile(sorted(lats), l.tailP)
	if l.latP50US > 0 {
		l.residual = 1 - (l.waitP50US+median(gathers)+median(denses)+median(tails))/l.latP50US
	}
	var handoff []float64
	for _, b := range batches {
		if b.last != 0 && b.first >= r.start && b.last <= r.end {
			handoff = append(handoff, (float64(b.last-b.first)-b.stageNS())/1e3)
		}
	}
	l.handoffP50US = median(handoff)
	return l
}

// writeTrace dumps the spans and client records of a traced run as JSON.
func writeTrace(path string, w workload, seed int64, tr *tracer, r *run) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	out := bufio.NewWriter(f)
	spans, dropped := tr.recorded()
	fmt.Fprintf(out, "{\"workload\":%q,\"seed\":%d,\"window_ns\":[%d,%d],\"dropped_spans\":%d,\n\"spans\":[", w.name, seed, r.start, r.end, dropped)
	for i, s := range spans {
		if i > 0 {
			out.WriteByte(',')
		}
		fmt.Fprintf(out, "\n{\"id\":%d,\"name\":%q,\"replica\":%d,\"batch\":%d,\"plane\":\"%p\",\"start_ns\":%d,\"end_ns\":%d}",
			i, stageNames[s.Stage], s.Replica, s.B, s.Plane, s.Start, s.End)
	}
	out.WriteString("],\n\"requests\":[")
	for i, q := range r.reqs {
		if i > 0 {
			out.WriteByte(',')
		}
		fmt.Fprintf(out, "\n{\"pool\":%d,\"gather_span\":%d,\"ok\":%t,\"due_ns\":%d,\"sent_ns\":%d,\"done_ns\":%d}",
			q.Pool, q.Gather, q.OK, q.Due, q.Sent, q.Done)
	}
	out.WriteString("]}\n")
	if err := out.Flush(); err != nil {
		return err
	}
	return f.Close()
}
