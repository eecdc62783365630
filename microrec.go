// Package microrec is a Go reproduction of MicroRec (Jiang et al., MLSys
// 2021): a high-performance recommendation-inference engine that combines
// Cartesian-product embedding-table merging with the parallel lookup
// capacity of an HBM-equipped FPGA and a deeply pipelined dataflow design.
//
// The package exposes the system a downstream user needs:
//
//   - model specifications (the paper's two production-scale models, or
//     custom specs),
//   - the MicroRec engine: fixed-point CTR inference on the CPU, its
//     embedding tables stored at the datapath's width,
//   - the accelerator model (NewAcceleratorModel): the placement planner
//     (Algorithm 1: Cartesian-product table combination plus hybrid-memory
//     allocation) feeding a calibrated cycle-level timing model of the
//     Alveo U280 design,
//   - the batched serving subsystem: a dynamic micro-batcher that
//     coalesces concurrent predict requests into hardware-sized batches,
//     drained by the server's staged drain, whose gather, dense-GEMM and
//     tail stages overlap over a ring of in-flight batch planes — the
//     software analogue of the paper's pipelined dataflow (§4.1) — or by a
//     worker pool that runs each batch through the same stage steps to
//     completion (NewServer), plus overload protection: a bounded submit
//     queue with fast-fail shedding and deadline-aware batch formation
//     (ServerOptions.Admission),
//   - the sharded serving tier (ServerOptions.Tier): embedding tables
//     partitioned across N gather shards balanced by the bytes each gathers,
//     each micro-batch scattered to the shards and their
//     partial planes merged before the FC stack runs once — bit-identical
//     to single-engine inference, with per-shard plane rings and
//     straggler-aware merge metrics in /stats, and
//   - the replicated serving tier (NewRouter): N independent server
//     replicas — each a full batching/pipeline composition around its own
//     engine — fronted by a router with pluggable policies (round-robin,
//     least-loaded, hot-key affinity via rendezvous hashing, so N tiered
//     stores' frequency windows of size C behave like one ~N·C window)
//     and a zero-drop close, and
//   - the open-loop load harness (RunLoad, SweepLoad): Poisson arrivals (or
//     any Arrivals process) that drive the server past saturation and
//     locate the knee — the highest offered rate meeting the tail SLA.
//
// Quick start:
//
//	spec := microrec.SmallProductionModel()
//	eng, err := microrec.NewEngine(spec, microrec.EngineOptions{})
//	...
//	gen, err := microrec.NewGenerator(spec, microrec.Uniform, 42)
//	queries, err := gen.Batch(64)
//	res, err := eng.Infer(queries)
//	fmt.Println(res.Predictions[0])
//	acc, err := microrec.NewAcceleratorModel(spec, microrec.AcceleratorOptions{})
//	rep, err := acc.Timing(len(queries))
//	fmt.Println(rep.LatencyNS)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package microrec

import (
	"io"

	"microrec/internal/accel"
	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/kernels"
	"microrec/internal/loadgen"
	"microrec/internal/metrics"
	"microrec/internal/model"
	"microrec/internal/obs"
	"microrec/internal/router"
	"microrec/internal/serving"
	"microrec/internal/tieredstore"
	"microrec/internal/workload"
)

// Re-exported core types. The implementation lives in internal packages; the
// aliases below are the supported public surface.
type (
	// Spec is a recommendation model specification.
	Spec = model.Spec
	// TableSpec describes one embedding table.
	TableSpec = model.TableSpec
	// Parameters holds materialised model parameters: the FC tower, and
	// the embedding tables as a seed-addressable stream (checkpoints, from
	// which an engine fills its tables at its width and float rows are
	// regenerated).
	Parameters = model.Parameters
	// Query is one inference's sparse input: per-table row indices, laid
	// out as one array, table after table (q[t] is the window at table t's
	// offset). Build queries with NewQuery or a Generator; an engine rejects
	// any other layout.
	Query = embedding.Query
	// Engine is the CPU inference engine (NewEngine).
	Engine = core.Engine
	// InferResult holds a batch's predictions (Engine.Infer).
	InferResult = core.InferResult
	// AcceleratorModel is a modelled MicroRec FPGA build: a model's
	// placement plan and build configuration, with the timing model over
	// them (NewAcceleratorModel).
	AcceleratorModel = accel.Model
	// TimingReport is the accelerator timing summary.
	TimingReport = accel.TimingReport
	// AcceleratorConfig is an accelerator build description.
	AcceleratorConfig = accel.Config
	// Resources is an FPGA resource-utilisation estimate.
	Resources = accel.Resources
	// PlacementResult is a table-combination + bank-allocation plan.
	PlacementResult = accel.Result
	// Generator produces deterministic query workloads.
	Generator = workload.Generator
	// MemorySystem describes a set of memory banks.
	MemorySystem = accel.System
	// Format is a fixed-point number format.
	Format = fixedpoint.Format
	// MaterializeOpts controls parameter materialisation (seed, capacity
	// scaling).
	MaterializeOpts = model.MaterializeOptions
	// BatchScratch holds the reusable buffers of the batched datapath
	// (one per goroutine).
	BatchScratch = core.BatchScratch
	// Server is the batched serving subsystem: a dynamic micro-batcher
	// drained through its staged drain (or a pool of run-to-completion
	// workers) behind response futures.
	Server = serving.Server
	// ServerOptions configures NewServer. Knobs are grouped into nested
	// sub-structs (Batching, Admission, Pipeline, Tier, Trace, Router).
	ServerOptions = serving.Options
	// BatchingOptions groups the micro-batcher knobs
	// (ServerOptions.Batching).
	BatchingOptions = serving.BatchingOptions
	// AdmissionOptions groups the overload-protection knobs
	// (ServerOptions.Admission).
	AdmissionOptions = serving.AdmissionOptions
	// PipelineOptions groups the batch-drain knobs (ServerOptions.Pipeline).
	PipelineOptions = serving.PipelineOptions
	// TierOptions groups the scatter/gather sharding knobs
	// (ServerOptions.Tier).
	TierOptions = serving.TierOptions
	// TraceOptions groups the flight-recorder knobs (ServerOptions.Trace).
	TraceOptions = serving.TraceOptions
	// ServerRouterOptions is the per-server replica identity group
	// (ServerOptions.Router); NewRouter stamps it on the servers it builds.
	ServerRouterOptions = serving.RouterOptions
	// ServingEngine is the engine seam the serving subsystem batches over —
	// the plane stage calls, query validation and the model spec: *Engine
	// implements it. Its one optional capability, an attached tiered store,
	// is discovered by interface assertion, not configuration.
	ServingEngine = serving.Engine
	// ServeResult is one served query's prediction, its observed wall
	// latency and the size of the batch that served it.
	ServeResult = serving.Result
	// ServerStats is a rolling snapshot of serving statistics (latency
	// percentiles, QPS, batch occupancy, pipeline stage occupancy and, on a
	// tiered engine, the tier and its frequency window).
	ServerStats = serving.Stats
	// PipelineStats is the /stats view of the drain's service meter, in
	// either drain: batches in service, per-stage occupancy and the
	// measured vs predicted steady-state batch interval.
	PipelineStats = serving.PipelineStats
	// ClusterStats is the /stats view of the sharded serving tier
	// (ServerOptions.Tier.Shards > 1): shard partition and per-shard
	// occupancy, the straggler merge-wait histogram and the imbalance ratio.
	ClusterStats = serving.ClusterStats
	// HotCacheInfo is a snapshot of a tiered engine's frequency window —
	// the LRU every row read is recorded in and the placement sweep pins
	// rows from — as ServerStats.HotCache reports it. An all-DRAM engine has
	// none.
	HotCacheInfo = serving.HotCacheStats
	// TierStats is the /stats view of the tiered embedding backing store
	// (EngineOptions.ColdTier): per-tier residency, read split and
	// promotion/demotion counters.
	TierStats = serving.TierStats
	// AdmissionStats is the /stats view of the admission gate: queue
	// pressure, shed/drop counters and the knee (capacity) estimate.
	AdmissionStats = serving.AdmissionStats
	// Router is the replicated serving tier: N independent servers behind
	// one Submit seam, with pluggable routing policies, per-replica
	// health/drain and drain-and-replace model swap (NewRouter).
	Router = router.Router
	// RouterOptions configures NewRouter (the initial routing policy).
	RouterOptions = router.Options
	// RoutePolicy selects how the router picks a replica per query
	// (RouteRoundRobin, RouteLeastLoaded, RouteAffinity).
	RoutePolicy = router.Policy
	// RouterStats is the /stats "router" section: active policy, routing
	// decisions per policy, the per-replica scoreboard and the affinity
	// hit-rate lift.
	RouterStats = serving.RouterStats
	// ReplicaStats is one replica's row in RouterStats.PerReplica.
	ReplicaStats = serving.ReplicaStats
	// PolicyDecisionStats is one policy's routing-decision volume in
	// RouterStats.Decisions.
	PolicyDecisionStats = serving.PolicyDecisionStats
	// BuildInfo records the binary's provenance — git revision and
	// cleanliness, Go toolchain, kernel dispatch — as carried in the
	// build_info section of /stats, /metrics and the loadtest report.
	BuildInfo = obs.BuildInfo
	// TraceSpan is one request's flight-recorder record: per-stage
	// nanosecond segments, batch context and the serving verdict
	// (Server.Trace, GET /trace).
	TraceSpan = obs.Span
	// TraceStats is the flight recorder's /stats section: ring size,
	// sampling rate, arrivals seen vs spans recorded.
	TraceStats = obs.Stats
	// TraceEvent is one Chrome trace-event format slice — the wire format
	// shared by GET /trace (live spans) and `microrec trace` (the
	// accelerator model's simulated pipeline).
	TraceEvent = obs.TraceEvent
	// Arrivals is an open-loop arrival process (inter-arrival gaps) for
	// the load harness.
	Arrivals = loadgen.Arrivals
	// LoadTarget is the slice of the serving tier the load harness drives:
	// a *Server directly, or a *Router fronting N of them.
	LoadTarget = loadgen.Target
	// LoadOptions configures one open-loop load run (RunLoad).
	LoadOptions = loadgen.Options
	// LoadResult summarises one open-loop run: admitted/shed/expired
	// counts, goodput and latency histograms.
	LoadResult = loadgen.Result
	// LoadSweepOptions configures a load sweep (SweepLoad).
	LoadSweepOptions = loadgen.SweepOptions
	// LoadSweepResult is a full sweep: per-level results plus the knee.
	LoadSweepResult = loadgen.SweepResult
	// LoadPoint is one sweep level's offered rate and result.
	LoadPoint = loadgen.Point
	// LatencyHistogram is a quantile summary recovered from a log-bucketed
	// histogram (p50/p95/p99/p99.9 without storing samples).
	LatencyHistogram = metrics.HistogramSnapshot
)

// DefaultTraceSample is the flight recorder's default head-sampling rate:
// record one request span in every DefaultTraceSample arrivals.
const DefaultTraceSample = serving.DefaultTraceSample

// ErrServerClosed is returned by Server.Submit after Server.Close.
var ErrServerClosed = serving.ErrServerClosed

// ErrInvalidQuery wraps queries rejected by Server.Submit's validation (a
// client fault, as opposed to an engine failure during batch service).
var ErrInvalidQuery = serving.ErrInvalidQuery

// ErrOverloaded is Server.Submit's fast-fail shed response when
// ServerOptions.Admission.Shed is set and the bounded submit queue is full
// (HTTP 429 with a Retry-After hint on /predict).
var ErrOverloaded = serving.ErrOverloaded

// ErrExpired resolves requests whose serving deadline
// (ServerOptions.Admission.SLA or an earlier context deadline) passed before
// service: dropped at plane-fill time without spending gather/GEMM work, or
// completed too late to matter.
var ErrExpired = serving.ErrExpired

// ErrNoReplicas is Router.Submit's response when the tier has no active
// replicas (all drained or none added).
var ErrNoReplicas = router.ErrNoReplicas

// ErrUnknownReplica reports a Drain or Swap naming a replica id the
// router does not hold.
var ErrUnknownReplica = router.ErrUnknownReplica

// Routing policies of the replicated serving tier (NewRouter, serve/loadtest
// -route).
const (
	// RouteRoundRobin cycles through active replicas — the oblivious
	// baseline.
	RouteRoundRobin = router.RoundRobin
	// RouteLeastLoaded routes to the replica with the smallest live load
	// score (queue depth + in-flight batch weight).
	RouteLeastLoaded = router.LeastLoaded
	// RouteAffinity routes by a rendezvous hash of the query's embedding
	// keys, so each replica's tiered store specializes on a slice of the
	// key space (N frequency windows of size C ≈ one N·C window).
	RouteAffinity = router.Affinity
)

// Workload distributions.
const (
	// Uniform draws indices uniformly.
	Uniform = workload.Uniform
	// Zipf draws indices with a hot-head popularity skew.
	Zipf = workload.Zipf
)

// Fixed-point precisions of the datapath.
var (
	// Fixed16 is the 16-bit datapath (Table 2's "FPGA fp16").
	Fixed16 = fixedpoint.Fixed16
	// Fixed32 is the 32-bit datapath.
	Fixed32 = fixedpoint.Fixed32
)

// SmallProductionModel returns the paper's smaller production model
// (47 tables, 352-dim feature, ~1.3 GB; Table 1).
func SmallProductionModel() *Spec { return model.SmallProduction() }

// LargeProductionModel returns the paper's larger production model
// (98 tables, 876-dim feature, ~15.1 GB; Table 1).
func LargeProductionModel() *Spec { return model.LargeProduction() }

// KernelFeatures reports which optimized datapath kernels this build selected
// at init ("portable" when none): the provenance string the loadtest report
// and the repository benchmark record so two perf documents can be compared
// like for like.
func KernelFeatures() string { return kernels.Features() }

// ReadBuildInfo reports this binary's provenance: the git revision it was
// built from (when the module was built inside a checkout), whether the tree
// was dirty, the Go toolchain, and the kernel dispatch string. It is the
// build_info stamped into /stats, /metrics and the loadtest report so every
// measurement names the code that produced it.
func ReadBuildInfo() BuildInfo { return obs.ReadBuild(kernels.Features()) }

// SpanTraceEvents renders flight-recorder spans (Server.Trace) as Chrome
// trace-event slices: one track per datapath stage, one event group per
// request, timestamps rebased to the earliest span.
func SpanTraceEvents(spans []TraceSpan) []TraceEvent { return obs.SpanEvents(spans) }

// WriteTraceEvents writes trace events as a chrome://tracing / Perfetto
// compatible JSON array — the serializer behind both GET /trace and
// `microrec trace`.
func WriteTraceEvents(w io.Writer, events []TraceEvent) error {
	return obs.WriteTraceEvents(w, events)
}

// EngineOptions configures NewEngine.
type EngineOptions struct {
	// Precision selects the datapath format; zero value means Fixed16.
	Precision Format
	// Seed drives deterministic parameter materialisation.
	Seed int64
	// MaxRowsPerTable caps materialised embedding rows (capacity
	// scaling); zero means the library default.
	MaxRowsPerTable int64
	// HotCacheBytes is the byte capacity of the cold tier's frequency
	// window: the LRU every row read is recorded in, whose hits and misses
	// /stats reports as its "hotcache" section and whose most-hit rows the
	// placement sweep pins. 0 means the hot-tier budget, floored at 1 MiB.
	// Ignored unless ColdTier is set.
	HotCacheBytes int64
	// ColdTier attaches the tiered embedding backing store: frequent rows
	// pinned in a DRAM hot tier, the full row set in an mmap'd cold file,
	// placement driven by a background sweep over the store's own frequency
	// window (HotCacheBytes). Bit-identical to all-DRAM by construction; only
	// the host's read cost changes, which SLA admission measures. Engines
	// built with a cold tier must be Closed (Engine.Close removes the file).
	ColdTier bool
	// ColdTierPath is the cold-tier file path; empty means an unnamed temp
	// file. Ignored unless ColdTier is set.
	ColdTierPath string
	// HotTierBytes is the DRAM hot-tier byte budget; 0 means a quarter of
	// the model's embedding bytes (the "model 4x larger than DRAM" demo
	// shape), negative means all-cold. Ignored unless ColdTier is set.
	HotTierBytes int64
}

func (o EngineOptions) config() core.Config {
	cfg := core.Config{Precision: orFixed16(o.Precision)}
	if o.ColdTier {
		cfg.ColdTier = &tieredstore.Config{Path: o.ColdTierPath, HotBytes: o.HotTierBytes, WindowBytes: o.HotCacheBytes}
	}
	return cfg
}

func orFixed16(f Format) Format {
	if f == (Format{}) {
		return Fixed16
	}
	return f
}

// NewEngine materialises parameters and builds a MicroRec engine in one
// call. Close the engine when done with it: its large embedding tables and
// the parameters' checkpoints live outside the Go heap, and the engine owns
// the parameters it materialised here, so only its Close frees them (an
// engine that is never closed keeps them until the process exits).
func NewEngine(spec *Spec, opts EngineOptions) (*Engine, error) {
	params, err := spec.Materialize(model.MaterializeOptions{
		Seed:            opts.Seed,
		MaxRowsPerTable: opts.MaxRowsPerTable,
	})
	if err != nil {
		return nil, err
	}
	eng, err := core.Build(params, opts.config())
	if err != nil {
		params.Release()
		return nil, err
	}
	// The parameters were materialised for this engine alone, so its Close
	// is what frees their checkpoints (they live outside the Go heap).
	eng.OwnParameters()
	return eng, nil
}

// NewEngineFromParams builds an engine from existing parameters (e.g. to
// build engines of different precisions from one stream: the first fills
// its tables in the stream's one pass, the others from its checkpoints). The
// parameters stay the caller's: the engine's Close frees only what it built
// itself (its tables), and Parameters.Release frees the checkpoints once
// nothing reads a float row from them any more.
func NewEngineFromParams(params *Parameters, opts EngineOptions) (*Engine, error) {
	return core.Build(params, opts.config())
}

// AcceleratorOptions configures NewAcceleratorModel.
type AcceleratorOptions struct {
	// Precision selects the datapath format, and with the model the
	// calibrated Table 6 build; zero value means Fixed16.
	Precision Format
	// DisableCartesian turns off table merging in the placement plan (the
	// paper's "HBM only" configuration).
	DisableCartesian bool
	// UseLPTAllocator swaps the paper-faithful round-robin DRAM
	// allocation for the cost-balancing LPT strategy.
	UseLPTAllocator bool
}

// NewAcceleratorModel runs the placement search (Algorithm 1) for spec on
// the U280 and returns the modelled accelerator build: its plan, its Table 6
// configuration, and the timing model over them (Timing, TracePipeline).
func NewAcceleratorModel(spec *Spec, opts AcceleratorOptions) (*AcceleratorModel, error) {
	alloc := accel.RoundRobin
	if opts.UseLPTAllocator {
		alloc = accel.LPT
	}
	cfg := accel.ConfigFor(spec.Name, orFixed16(opts.Precision))
	return accel.New(spec, cfg, accel.Options{EnableCartesian: !opts.DisableCartesian, Allocator: alloc})
}

// NewServer starts the batched serving subsystem around an engine: Submit
// coalesces concurrent queries into micro-batches (dispatched the moment the
// drain can serve one, growing up to MaxBatch while it cannot — an idle server
// answers a lone query at once), drained by default through the server's
// staged drain — gather, dense-GEMM and tail stages overlapped over a ring of
// ServerOptions.Pipeline.Depth batch planes, bit-identical to the monolithic
// datapath — or, with ServerOptions.Pipeline.WorkerPool set, by Depth workers
// that each call the same three stage steps back to back on their own plane. With ServerOptions.Tier.Shards > 1 the server first wraps the engine
// in the sharded scatter/gather tier (tables partitioned across shards,
// partial planes merged before the FC stack; bit-identical by construction).
// The returned server owns background goroutines; callers must Close it.
func NewServer(eng *Engine, opts ServerOptions) (*Server, error) {
	return serving.New(eng, opts)
}

// NewRouter builds an empty replicated serving tier with the given routing
// policy (zero value: round-robin). Replicas are added with Router.Add —
// each a full serving composition around its own engine — and Close drains
// them all without dropping an admitted request. The
// router satisfies the same Submit/Stats/Trace/WriteMetrics surface as a
// single Server, so the HTTP mux and the load harness drive either.
func NewRouter(opts RouterOptions) (*Router, error) { return router.New(opts) }

// ParseRoutePolicy resolves a -route flag value to a RoutePolicy.
func ParseRoutePolicy(s string) (RoutePolicy, error) { return router.ParsePolicy(s) }

// RoutePolicies lists the supported routing policies.
func RoutePolicies() []RoutePolicy { return router.Policies() }

// NewQuery returns a zeroed query for spec in the layout an engine accepts:
// one array of indices, sliced per table in table order. Write each table's
// indices into q[t] in place; appending to q[t] breaks the layout.
func NewQuery(spec *Spec) Query { return embedding.NewQuery(spec) }

// NewGenerator builds a deterministic workload generator.
func NewGenerator(spec *Spec, dist workload.Distribution, seed int64) (*Generator, error) {
	return workload.NewGenerator(spec, dist, seed)
}

// NewPoissonArrivals builds a deterministic open-loop Poisson arrival
// process offering `qps` requests per second.
func NewPoissonArrivals(qps float64, seed int64) (Arrivals, error) {
	return loadgen.NewPoisson(qps, seed)
}

// RunLoad drives one open-loop load run against a server: requests fire on
// the arrival process's schedule regardless of completions (the measurement
// discipline under which overload and tail collapse are actually visible),
// each bounded by the SLA as its context deadline.
func RunLoad(target LoadTarget, queries []Query, arr Arrivals, opts LoadOptions) (LoadResult, error) {
	return loadgen.Run(target, queries, arr, opts)
}

// SweepLoad runs one open-loop run per load level and locates the knee: the
// highest offered rate whose admitted p99 still meets the SLA with losses
// within tolerance. `microrec loadtest` is a CLI wrapper around this.
func SweepLoad(target LoadTarget, queries []Query, opts LoadSweepOptions) (LoadSweepResult, error) {
	return loadgen.Sweep(target, queries, opts)
}
