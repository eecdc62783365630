package serving

import (
	"fmt"
	"runtime"
	"time"

	"microrec/internal/embedding"
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
	// field stays (with the flat fields below) only for callers that still
	// set it.
	Window time.Duration
	// StatsWindow is the number of recent queries retained for the rolling
	// latency statistics. Default 4096.
	StatsWindow int
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

// PipelineOptions groups the drain knobs: the staged pipeline executor (the
// default) or the flat engine worker pool.
type PipelineOptions struct {
	// Depth is the batch-plane ring size of the pipelined drain: the bound
	// on micro-batches in flight across the gather, GEMM and tail stages.
	// Minimum 2 (overlap needs two planes). Default 3 — one plane per
	// stage. Ignored in worker-pool mode.
	Depth int
	// WorkerPool selects the flat worker-pool drain (each batch runs
	// gather + GEMM monolithically on one of Workers goroutines) instead of
	// the default staged pipeline executor.
	WorkerPool bool
	// Workers is the number of engine workers draining batches in the
	// worker-pool fallback mode (unused by the pipelined drain, which owns
	// one goroutine per stage). Default GOMAXPROCS.
	Workers int
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
	// admission then uses the tier's max-over-shards lookup bound, and
	// /stats gains a "cluster" section. 0 or 1 serves on the engine
	// directly.
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

// Options configures a Server. The zero value gets sensible defaults.
//
// Knobs are grouped by concern into the nested sub-structs (Batching,
// Admission, Pipeline, Tier, Trace, Router). The flat fields below the groups
// are the pre-grouping spelling, kept for one release as deprecated
// pass-throughs: a flat field set while its nested twin is zero is copied
// into the nested field before defaulting, so existing callers keep working
// unchanged. Setting both spellings to different values is a configuration
// error caught by Validate. After New (or withDefaults) the two spellings
// mirror each other, so Server.Options() readers can use either during the
// deprecation window.
type Options struct {
	// Batching configures the micro-batcher (largest batch).
	Batching BatchingOptions
	// Admission configures overload protection (queue bound, shed, SLA).
	Admission AdmissionOptions
	// Pipeline configures the drain (plane ring, or worker-pool fallback).
	Pipeline PipelineOptions
	// Tier configures intra-replica scale-out (gather shards).
	Tier TierOptions
	// Trace configures the flight recorder (head-sampling rate).
	Trace TraceOptions
	// Router carries the server's identity inside the replicated tier.
	Router RouterOptions

	// MaxBatch is the flat spelling of Batching.MaxBatch.
	//
	// Deprecated: set Batching.MaxBatch.
	MaxBatch int
	// Window is the flat spelling of Batching.Window.
	//
	// Deprecated: ignored, like Batching.Window.
	Window time.Duration
	// Workers is the flat spelling of Pipeline.Workers.
	//
	// Deprecated: set Pipeline.Workers.
	Workers int
	// QueueDepth is the flat spelling of Admission.QueueDepth.
	//
	// Deprecated: set Admission.QueueDepth.
	QueueDepth int
	// StatsWindow is the flat spelling of Batching.StatsWindow.
	//
	// Deprecated: set Batching.StatsWindow.
	StatsWindow int
	// WorkerPool is the flat spelling of Pipeline.WorkerPool.
	//
	// Deprecated: set Pipeline.WorkerPool.
	WorkerPool bool
	// PipelineDepth is the flat spelling of Pipeline.Depth.
	//
	// Deprecated: set Pipeline.Depth.
	PipelineDepth int
	// SLA is the flat spelling of Admission.SLA.
	//
	// Deprecated: set Admission.SLA.
	SLA time.Duration
	// Shed is the flat spelling of Admission.Shed.
	//
	// Deprecated: set Admission.Shed.
	Shed bool
	// Shards is the flat spelling of Tier.Shards.
	//
	// Deprecated: set Tier.Shards.
	Shards int
	// TraceSample is the flat spelling of Trace.Sample.
	//
	// Deprecated: set Trace.Sample.
	TraceSample int

	// conflictErr remembers a flat-vs-nested disagreement found while
	// merging; Validate surfaces it.
	conflictErr error
}

// mergeInt routes one deprecated flat int (or duration) into its nested twin:
// the flat value fills a zero nested field; a non-zero disagreement is a
// configuration error.
func mergeInt[T int | int64 | time.Duration](dst *T, flat T, name string) error {
	if flat == 0 {
		return nil
	}
	if *dst == 0 {
		*dst = flat
		return nil
	}
	if *dst != flat {
		return fmt.Errorf("serving: %s set to %v via the deprecated flat field but %v via the nested group — set one spelling", name, flat, *dst)
	}
	return nil
}

// merge routes every deprecated flat field into its nested twin and then
// mirrors the nested values back onto the flat fields, so both spellings
// agree for the rest of the options' life. Boolean knobs OR (a zero bool is
// indistinguishable from "unset").
func (o Options) merge() Options {
	type pair struct {
		dst  *int
		flat int
		name string
	}
	for _, p := range []pair{
		{&o.Batching.MaxBatch, o.MaxBatch, "MaxBatch"},
		{&o.Batching.StatsWindow, o.StatsWindow, "StatsWindow"},
		{&o.Pipeline.Workers, o.Workers, "Workers"},
		{&o.Pipeline.Depth, o.PipelineDepth, "PipelineDepth"},
		{&o.Admission.QueueDepth, o.QueueDepth, "QueueDepth"},
		{&o.Tier.Shards, o.Shards, "Shards"},
		{&o.Trace.Sample, o.TraceSample, "TraceSample"},
	} {
		if err := mergeInt(p.dst, p.flat, p.name); err != nil && o.conflictErr == nil {
			o.conflictErr = err
		}
	}
	if err := mergeInt(&o.Batching.Window, o.Window, "Window"); err != nil && o.conflictErr == nil {
		o.conflictErr = err
	}
	if err := mergeInt(&o.Admission.SLA, o.SLA, "SLA"); err != nil && o.conflictErr == nil {
		o.conflictErr = err
	}
	o.Pipeline.WorkerPool = o.Pipeline.WorkerPool || o.WorkerPool
	o.Admission.Shed = o.Admission.Shed || o.Shed
	return o.mirror()
}

// mirror copies the nested fields back over the flat pass-throughs.
func (o Options) mirror() Options {
	o.MaxBatch = o.Batching.MaxBatch
	o.Window = o.Batching.Window
	o.StatsWindow = o.Batching.StatsWindow
	o.Workers = o.Pipeline.Workers
	o.PipelineDepth = o.Pipeline.Depth
	o.WorkerPool = o.Pipeline.WorkerPool
	o.QueueDepth = o.Admission.QueueDepth
	o.Shed = o.Admission.Shed
	o.SLA = o.Admission.SLA
	o.Shards = o.Tier.Shards
	o.TraceSample = o.Trace.Sample
	return o
}

// withDefaults merges the deprecated flat fields into the nested groups and
// replaces zero fields with defaults. Both spellings mirror each other in the
// result.
func (o Options) withDefaults() Options {
	o = o.merge()
	if o.Batching.MaxBatch == 0 {
		o.Batching.MaxBatch = 64
	}
	if o.Pipeline.Workers == 0 {
		o.Pipeline.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Admission.QueueDepth == 0 {
		o.Admission.QueueDepth = 4 * o.Batching.MaxBatch
	}
	if o.Batching.StatsWindow == 0 {
		o.Batching.StatsWindow = 4096
	}
	if o.Pipeline.Depth == 0 {
		o.Pipeline.Depth = 3
	}
	if o.Trace.Sample == 0 {
		o.Trace.Sample = DefaultTraceSample
	}
	return o.mirror()
}

// Validate checks the options after defaulting.
func (o Options) Validate() error {
	if o.conflictErr != nil {
		return o.conflictErr
	}
	if o.Batching.MaxBatch < 1 {
		return fmt.Errorf("serving: max batch %d", o.Batching.MaxBatch)
	}
	if o.Pipeline.Workers < 1 {
		return fmt.Errorf("serving: %d workers", o.Pipeline.Workers)
	}
	if o.Admission.QueueDepth < 1 {
		return fmt.Errorf("serving: queue depth %d", o.Admission.QueueDepth)
	}
	if o.Batching.StatsWindow < 1 {
		return fmt.Errorf("serving: stats window %d", o.Batching.StatsWindow)
	}
	if o.Admission.SLA < 0 {
		return fmt.Errorf("serving: negative SLA %v", o.Admission.SLA)
	}
	if !o.Pipeline.WorkerPool && o.Pipeline.Depth < 2 {
		return fmt.Errorf("serving: pipeline depth %d (need >= 2 planes; use Pipeline.WorkerPool for the flat drain)", o.Pipeline.Depth)
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

// Optional engine capabilities.
//
// The Engine interface is the mandatory seam every serving engine implements.
// The capabilities below are optional: the server (and the replicated router
// tier) discover them by interface assertion at construction and engage the
// matching hooks only when present. Fakes and alternative backends opt in by
// implementing the named interface — never by accidentally matching an
// undocumented type assertion. *core.Engine and *cluster.Cluster implement
// Tiered and Prefetcher; internal/router's HotEngine implements Reloadable.

// Tiered is the optional capability of an engine backed by the tiered
// embedding store (core.Config.ColdTier): a tier snapshot for the /stats
// "tiers" section. An engine may implement the method and still report
// ok=false (no store attached, all-DRAM); the server engages the tier hooks
// only when a store is attached.
type Tiered interface {
	// Tier snapshots the tiered backing store; ok is false on an all-DRAM
	// engine.
	Tier() (snap tieredstore.Snapshot, ok bool)
}

// Prefetcher is the optional capability to pre-fault the rows a batch will
// gather. The drains call it at plane-fill time — after the deadline-drop
// filter, before the gather commits — so a cold row's modeled fault is
// absorbed while filling that plane only instead of serialising into the
// gather. The server engages it only on engines whose Tiered capability
// reports an attached store.
type Prefetcher interface {
	// PrefetchBatch touches the cold rows a batch will gather.
	PrefetchBatch(queries []embedding.Query)
}

// Reloadable is the optional capability of an engine that can hot-swap the
// model it serves: Reload atomically replaces the serving datapath with
// next's, under live traffic, without a server restart. The replacement must
// be timing-compatible (same spec geometry and placement shape — refreshed
// parameters, not a different architecture): the server memoises timing
// reports per batch size and does not re-derive them on reload. The
// replicated router tier uses it for in-place model swaps; engines without it
// are swapped at replica granularity instead (drain + replace, Router.Swap).
type Reloadable interface {
	// Reload replaces the served model with next. It returns an error (and
	// leaves the current model serving) when next is not a compatible
	// engine.
	Reload(next Engine) error
}
