package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"microrec"
)

// request is the client-side record of one operation. Times are nanoseconds
// since the run's epoch. Gather is the index of the traced gather span that
// carried the request's pool entry (-1 when the run is not traced).
type request struct {
	Pool   int32
	Gather int32
	OK     bool
	// Due is when an open-loop request was scheduled; closed loops send as
	// soon as the previous reply arrives, so there Due equals Sent.
	Due  int64
	Sent int64
	Done int64
}

// run is one measured window and the requests that completed inside it.
type run struct {
	start, end int64 // window bounds, ns since epoch
	reqs       []request
}

func (r *run) seconds() float64 { return float64(r.end-r.start) / 1e9 }

func (r *run) counts() (attempted, failed int) {
	for i := range r.reqs {
		if !r.reqs[i].OK {
			failed++
		}
	}
	return len(r.reqs), failed
}

// warmupFor is the untimed lead-in before a window: long enough for planes,
// caches and the tier's 200 ms sweeps to settle, scaled down for the short
// windows the smoke test uses.
func warmupFor(window time.Duration) time.Duration {
	return min(2*time.Second, window*3/10)
}

// closedLoop drives tgt with the workload's client count for warm-up plus
// window. Client c cycles through pool entries c, c+C, c+2C, ... so no pool
// entry is ever in flight twice, which is what lets a traced batch name its
// members by pool index. Every reply is compared bit for bit with the
// prediction computed at set-up.
func closedLoop(tgt target, r *rig, tr *tracer, epoch time.Time, window time.Duration) *run {
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		clients = r.w.clients
		per     = make([][]request, clients)
		start   = int64(time.Since(epoch) + warmupFor(window))
		end     = start + int64(window)
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []request
			for idx := c; !stop.Load(); idx += clients {
				if idx >= len(r.pool) {
					idx = c
				}
				sent := int64(time.Since(epoch))
				res, err := tgt.Submit(context.Background(), r.pool[idx])
				done := int64(time.Since(epoch))
				if done < start || done >= end {
					continue
				}
				mine = append(mine, request{
					Pool: int32(idx), Gather: tr.gatherOf(idx),
					OK:  err == nil && math.Float32bits(res.CTR) == math.Float32bits(r.expected[idx]),
					Due: sent, Sent: sent, Done: done,
				})
			}
			per[c] = mine
		}(c)
	}
	time.Sleep(time.Duration(end) - time.Since(epoch))
	stop.Store(true)
	wg.Wait()
	out := &run{start: start, end: end}
	for _, p := range per {
		out.reqs = append(out.reqs, p...)
	}
	return out
}

// gatherLoop is the embed_lookup workload: one goroutine gathers validated
// batches of 64 into a pre-sized plane as fast as it can. Only the gather
// call is timed. Every 63rd batch (coprime with the pool's 64 batches, so
// the check walks the whole pool) is carried through the dense and tail
// stages outside the timed region and its predictions compared with the
// expected ones, so a wrong gather cannot go unnoticed. One request is one
// batch.
func gatherLoop(eng stageEngine, r *rig, tr *tracer, epoch time.Time, window time.Duration) *run {
	var plane microrec.BatchScratch
	eng.EnsurePlane(&plane, embedBatch)
	preds := make([]float32, embedBatch)
	start := int64(time.Since(epoch) + warmupFor(window))
	end := start + int64(window)
	out := &run{start: start, end: end}
	batches := len(r.pool) / embedBatch
	for n := 0; ; n++ {
		lo := n % batches * embedBatch
		batch := r.pool[lo : lo+embedBatch]
		sent := int64(time.Since(epoch))
		eng.GatherIntoPlane(batch, &plane)
		done := int64(time.Since(epoch))
		if done >= end {
			return out
		}
		ok := true
		if n%63 == 0 {
			eng.DenseFromPlane(embedBatch, &plane)
			eng.TailFromPlane(embedBatch, &plane, preds)
			for i, p := range preds {
				ok = ok && math.Float32bits(p) == math.Float32bits(r.expected[lo+i])
			}
		}
		if done >= start {
			out.reqs = append(out.reqs, request{
				Pool: int32(lo), Gather: tr.gatherOf(lo), OK: ok, Due: sent, Sent: sent, Done: done,
			})
		}
	}
}

// stageEngine is the plane-stage surface gatherLoop and the probes call; both
// *microrec.Engine and the tracing wrapper provide it.
type stageEngine interface {
	EnsurePlane(s *microrec.BatchScratch, b int)
	GatherIntoPlane(queries []microrec.Query, s *microrec.BatchScratch)
	DenseFromPlane(b int, s *microrec.BatchScratch)
	TailFromPlane(b int, s *microrec.BatchScratch, dst []float32)
}

// endToEnd is a window reduced to the benchmark's end-to-end values.
type endToEnd struct {
	qps    sliceSummary
	latP50 sliceSummary // µs
	// tail is the highest latency percentile the sample supports (tailP),
	// over the whole window, in µs.
	tail  float64
	tailP float64
}

// The reported value of an end-to-end metric is the quartile over slices on
// the fast side: the third quartile of throughput, the first of latency. The
// host this runs on only ever slows the program down (a neighbour on the
// sibling hyperthread makes a dense call 1.6x slower for a varying share of
// the time, while its fastest call repeats within 2%), so the fast side is
// the side that repeats; README.md has the measurements behind the choice.
func (e endToEnd) reportedQPS() float64   { return e.qps.Q3 }
func (e endToEnd) reportedLatUS() float64 { return e.latP50.Q1 }

// reduce cuts the window into slices and summarizes the per-slice values.
// For the served workloads a slice's throughput is correct replies over the
// slice's wall time; for the gather loop it is queries gathered over the time
// spent inside gather calls (the correctness work between calls is not part
// of the system under test). A slice's latency is the median over the
// requests that completed in it.
func reduce(r *run, w workload) endToEnd {
	type slice struct {
		ok     float64
		busyNS float64
		lats   []float64
	}
	slices := make([]slice, slicesPerWindow)
	width := float64(r.end-r.start) / slicesPerWindow
	all := make([]float64, 0, len(r.reqs))
	for i := range r.reqs {
		q := &r.reqs[i]
		s := &slices[min(int(float64(q.Done-r.start)/width), slicesPerWindow-1)]
		lat := float64(q.Done-q.Due) / 1e3
		s.lats = append(s.lats, lat)
		s.busyNS += float64(q.Done - q.Sent)
		all = append(all, lat)
		if q.OK {
			s.ok++
		}
	}
	qps := make([]float64, slicesPerWindow)
	lat := make([]float64, slicesPerWindow)
	for i, s := range slices {
		switch {
		case w.replicas > 0:
			qps[i] = s.ok / (width / 1e9)
		case s.busyNS > 0:
			qps[i] = s.ok * embedBatch / (s.busyNS / 1e9)
		default:
			qps[i] = math.NaN()
		}
		lat[i] = math.NaN()
		if len(s.lats) > 0 {
			lat[i] = median(s.lats)
		}
	}
	e := endToEnd{qps: summarize(qps), latP50: summarize(lat), tailP: tailPercentile(len(all))}
	e.tail = percentile(sorted(all), e.tailP)
	return e
}
