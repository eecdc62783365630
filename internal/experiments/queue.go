// The serving-side tension the paper builds its latency argument on (§2.3):
// CPU engines need large batches for throughput, but the SLA of tens of
// milliseconds caps the feasible batch size — while the accelerator serves
// item-by-item and needs no batching at all (§4.1).
//
// This file holds an SLA-aware batch-size chooser over the calibrated CPU
// model and a discrete-event simulation of the CPU baseline's batching queue
// (arrivals, batch formation with a timeout, FIFO service), in the spirit of
// the DeepRecSys scheduler the paper cites (Gupta et al. 2020a). RunSLA
// (sla.go) prints both.

package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"microrec/internal/metrics"
)

// MaxBatchUnderSLA returns the largest batch size in [1, maxBatch] whose
// modeled CPU service latency stays within the SLA, or 0 if even B=1 misses
// it. Service latency grows monotonically with B, so binary search applies.
func MaxBatchUnderSLA(m CPUModel, slaMS float64, maxBatch int) int {
	if maxBatch < 1 || slaMS <= 0 {
		return 0
	}
	if m.EndToEndMS(1) > slaMS {
		return 0
	}
	lo, hi := 1, maxBatch
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.EndToEndMS(mid) <= slaMS {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// QueuePolicy configures the batching queue.
type QueuePolicy struct {
	// MaxBatch is the largest batch the server forms.
	MaxBatch int
	// TimeoutMS bounds how long the first query of a forming batch may
	// wait before the batch is dispatched partially full.
	TimeoutMS float64
}

// Validate checks the policy.
func (p QueuePolicy) Validate() error {
	if p.MaxBatch < 1 {
		return fmt.Errorf("experiments: max batch %d", p.MaxBatch)
	}
	if p.TimeoutMS < 0 {
		return fmt.Errorf("experiments: negative timeout")
	}
	return nil
}

// QueueResult summarises a queue simulation.
type QueueResult struct {
	// Queries served.
	Queries int
	// Latency is the distribution of per-query end-to-end latency
	// (queueing + batching delay + service), in ms.
	Latency metrics.Summary
	// MeanBatch is the average dispatched batch size.
	MeanBatch float64
	// ThroughputPerSec is queries / makespan.
	ThroughputPerSec float64
	// SLAViolations counts queries whose latency exceeded the given SLA
	// (only computed when slaMS > 0).
	SLAViolations int
}

// SimulateQueue runs `queries` arrivals with exponential inter-arrival times
// at the given rate through a single batching server whose service time
// follows the calibrated CPU model. slaMS, when positive, is only used to
// count violations.
func SimulateQueue(m CPUModel, arrivalsPerSec float64, queries int, pol QueuePolicy, slaMS float64, seed int64) (QueueResult, error) {
	if err := pol.Validate(); err != nil {
		return QueueResult{}, err
	}
	if arrivalsPerSec <= 0 {
		return QueueResult{}, fmt.Errorf("experiments: arrival rate %v", arrivalsPerSec)
	}
	if queries < 1 {
		return QueueResult{}, fmt.Errorf("experiments: %d queries", queries)
	}
	rng := rand.New(rand.NewSource(seed))
	// Arrival times in ms.
	arrivals := make([]float64, queries)
	t := 0.0
	for i := range arrivals {
		t += rng.ExpFloat64() / arrivalsPerSec * 1e3
		arrivals[i] = t
	}
	latencies := make([]float64, 0, queries)
	var (
		serverFree float64
		idx        int
		batches    int
		totalBatch int
		makespan   float64
		violations int
	)
	for idx < queries {
		// The server picks up work at the later of its free time and the
		// first waiting query's arrival.
		start := math.Max(serverFree, arrivals[idx])
		// Batch formation: everything that has arrived by `start` joins,
		// up to MaxBatch. If the batch is still short, wait for more
		// arrivals until the first query's timeout expires.
		deadline := arrivals[idx] + pol.TimeoutMS
		if deadline < start {
			deadline = start
		}
		end := idx
		dispatch := start
		for end < queries && end-idx < pol.MaxBatch {
			if arrivals[end] <= start {
				end++
				continue
			}
			if arrivals[end] <= deadline {
				dispatch = math.Max(dispatch, arrivals[end])
				end++
				continue
			}
			break
		}
		b := end - idx
		if b < pol.MaxBatch && deadline > dispatch {
			// A short batch leaves when its first query's timeout expires:
			// the server cannot know that no further query arrives first.
			dispatch = deadline
		}
		service := m.EndToEndMS(b)
		done := dispatch + service
		for q := idx; q < end; q++ {
			lat := done - arrivals[q]
			latencies = append(latencies, lat)
			if slaMS > 0 && lat > slaMS {
				violations++
			}
		}
		batches++
		totalBatch += b
		serverFree = done
		makespan = done
		idx = end
	}
	return QueueResult{
		Queries:          queries,
		Latency:          metrics.Summarize(latencies),
		MeanBatch:        float64(totalBatch) / float64(batches),
		ThroughputPerSec: float64(queries) / (makespan / 1e3),
		SLAViolations:    violations,
	}, nil
}
