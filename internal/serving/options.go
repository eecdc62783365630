package serving

import (
	"fmt"
	"time"

	"microrec/internal/tieredstore"
)

// BatchingOptions groups the micro-batcher knobs: how requests coalesce into
// hardware-sized batches.
type BatchingOptions struct {
	// MaxBatch is the largest batch the batcher forms. A forming batch is
	// dispatched as soon as the drain can start serving it (a free plane, or
	// an idle pool worker) and keeps growing, up to MaxBatch, while it
	// cannot; at MaxBatch the batcher stops reading the submit queue. For
	// per-query serving set MaxBatch to 1. Default 64.
	MaxBatch int
	// Window was the deadline flush of the timer-driven batcher.
	//
	// Deprecated: ignored. No clock takes part in batch formation; the
	// field stays only for callers that still set it.
	Window time.Duration
}

// AdmissionOptions groups the overload-protection knobs: the bounded submit
// queue, the fast-fail shed path and the per-request serving deadline.
type AdmissionOptions struct {
	// QueueDepth is the capacity of the submit queue (backpressure bound).
	// Default 4*MaxBatch.
	QueueDepth int
	// Shed makes Submit fail fast with ErrOverloaded when the submit queue
	// is full, instead of blocking on backpressure — the admission-control
	// posture for open-loop traffic, where blocking just moves the queue
	// into the clients. Combine with QueueDepth to bound the worst-case
	// queueing delay of every admitted request.
	Shed bool
	// SLA, when positive, gives every request a serving deadline of SLA
	// after its submit time (tightened by an earlier context deadline).
	// Requests still queued when their deadline passes are dropped at
	// batch-formation time — no gather or GEMM is spent on them — and fail
	// with ErrExpired. Zero disables server-side deadlines; a request's own
	// context deadline is still honoured at batch formation.
	SLA time.Duration
}

// PipelineOptions groups the drain knobs. Both drains serve a batch on one
// pre-sized plane through the same gather, dense and tail stage calls; they
// differ only in scheduling.
type PipelineOptions struct {
	// Depth is the number of batches in service: planes in the pipelined
	// drain's ring, overlapped across its gather, GEMM and tail stage
	// goroutines (minimum 2, so two stages can overlap), or workers in the
	// worker pool, each owning one plane and carrying it through all three
	// stages (minimum 1). Default 3.
	Depth int
	// WorkerPool selects the worker-pool drain (each batch runs to
	// completion on one of Depth goroutines) instead of the default staged
	// pipeline executor.
	WorkerPool bool
}

// TierOptions groups the intra-replica scale-out knobs: the sharded
// scatter/gather serving tier.
type TierOptions struct {
	// Shards, when > 1, runs the sharded serving tier: the engine's
	// embedding tables are partitioned across that many gather shards
	// (placement's LPT shard assignment), every micro-batch is scattered to
	// the shards and their partial planes merged before the FC stack runs
	// once — bit-identical to single-engine service by construction. The
	// server wraps the engine in an internal/cluster coordinator it owns
	// (requires a *core.Engine or a caller-built *cluster.Cluster); SLA
	// admission then times its calibration batch through the scatter/gather
	// round, and /stats gains a "cluster" section. 0 or 1 serves on the
	// engine directly.
	Shards int
}

// TraceOptions groups the flight-recorder knobs.
type TraceOptions struct {
	// Sample is the flight recorder's head-sampling rate: one request in
	// Sample is recorded as a full stage-decomposition span (readable via
	// GET /trace or Server.Trace). 1 records every request; default
	// DefaultTraceSample (8). The recorder is always on — an unsampled
	// request pays a single atomic increment.
	Sample int
}

// RouterOptions groups the replicated-tier identity knobs. A server inside
// the replicated router tier (internal/router) is one of N full replicas; the
// router stamps each replica's identity here so the replica can label its
// telemetry.
type RouterOptions struct {
	// ReplicaID is this server's 1-based id in the replicated tier; it is
	// stamped on every flight-recorder span (Span.Replica) so routed traces
	// decompose per replica. 0 (the default) marks an unrouted server.
	ReplicaID int
}

// Options configures a Server, with knobs grouped by concern. The zero value
// gets sensible defaults.
type Options struct {
	// Batching configures the micro-batcher (largest batch).
	Batching BatchingOptions
	// Admission configures overload protection (queue bound, shed, SLA).
	Admission AdmissionOptions
	// Pipeline configures the drain (batches in service, and which drain).
	Pipeline PipelineOptions
	// Tier configures intra-replica scale-out (gather shards).
	Tier TierOptions
	// Trace configures the flight recorder (head-sampling rate).
	Trace TraceOptions
	// Router carries the server's identity inside the replicated tier.
	Router RouterOptions
}

// withDefaults replaces zero fields with defaults.
func (o Options) withDefaults() Options {
	if o.Batching.MaxBatch == 0 {
		o.Batching.MaxBatch = 64
	}
	if o.Admission.QueueDepth == 0 {
		o.Admission.QueueDepth = 4 * o.Batching.MaxBatch
	}
	if o.Pipeline.Depth == 0 {
		o.Pipeline.Depth = 3
	}
	if o.Trace.Sample == 0 {
		o.Trace.Sample = DefaultTraceSample
	}
	return o
}

// Validate checks the options after defaulting.
func (o Options) Validate() error {
	if o.Batching.MaxBatch < 1 {
		return fmt.Errorf("serving: max batch %d", o.Batching.MaxBatch)
	}
	if o.Admission.QueueDepth < 1 {
		return fmt.Errorf("serving: queue depth %d", o.Admission.QueueDepth)
	}
	if o.Admission.SLA < 0 {
		return fmt.Errorf("serving: negative SLA %v", o.Admission.SLA)
	}
	if o.Pipeline.WorkerPool && o.Pipeline.Depth < 1 {
		return fmt.Errorf("serving: pipeline depth %d (the worker pool needs >= 1 worker)", o.Pipeline.Depth)
	}
	if !o.Pipeline.WorkerPool && o.Pipeline.Depth < 2 {
		return fmt.Errorf("serving: pipeline depth %d (need >= 2 planes; use Pipeline.WorkerPool to run batches to completion)", o.Pipeline.Depth)
	}
	if o.Tier.Shards < 0 {
		return fmt.Errorf("serving: shard count %d", o.Tier.Shards)
	}
	if o.Trace.Sample < 1 {
		return fmt.Errorf("serving: trace sample %d (1 records every request)", o.Trace.Sample)
	}
	if o.Router.ReplicaID < 0 {
		return fmt.Errorf("serving: replica id %d (0 = unrouted, replicas are 1-based)", o.Router.ReplicaID)
	}
	return nil
}

// Optional engine capability.
//
// The Engine interface is the mandatory seam every serving engine implements.
// Tiered is its one optional capability: the server discovers it by interface
// assertion at construction and reports the store only when one is attached.
// Fakes and alternative backends opt in by implementing the named interface —
// never by accidentally matching an undocumented type assertion.
// *core.Engine and *cluster.Cluster implement it.

// Tiered is the optional capability of an engine backed by the tiered
// embedding store (core.Config.ColdTier): the store whose snapshot fills the
// /stats "tiers" section and whose frequency window fills its "hotcache"
// section. An engine may implement the method and still return nil (no store
// attached, all-DRAM); the server reports the tier only when a store is
// attached.
type Tiered interface {
	// Tier returns the tiered backing store, nil on an all-DRAM engine.
	Tier() *tieredstore.Store
}
