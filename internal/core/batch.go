package core

import (
	"fmt"

	"microrec/internal/embedding"
)

// The batched datapath below is the CPU-side analogue of the paper's
// throughput argument: per-query inference streams every FC weight matrix
// from memory once per query, while a micro-batch reuses each weight block
// across the whole batch. Features arrive already quantized from
// GatherIntoPlane (gather.go); the GEMM itself lives in internal/kernels — a
// column-blocked fixed-point kernel over the transposed (out x in) weight
// layout, so every weight access is sequential and each cache-resident block
// is reused by the whole batch, with a per-width AVX2 path selected at init
// where the host supports it. The wide accumulators match the per-query GEMV
// exactly (and the optimized kernels are property-tested bit-identical to
// the portable reference), so batched predictions are bit-identical to
// InferOne. The width-native plane code these entry points forward to is in
// plane.go.

// GatherObs is the per-batch gather observability record the flight recorder
// folds into a request span: cold-tier faults suffered by the batch's gather,
// and — when the gather was a cluster scatter — the scatter width, slowest
// shard service and merge wait. A single-engine gather leaves Shards at 0.
type GatherObs struct {
	ColdFaults  int64
	Shards      int
	ShardMaxNS  int64
	MergeWaitNS int64
}

// BatchScratch holds the reusable buffers of the batched datapath. A scratch
// is owned by one goroutine at a time; distinct goroutines must use distinct
// scratches (the engine itself stays immutable and shareable). Scratches are
// never copied by value — the noCopy field lets vet's copylocks check pin
// that contract.
type BatchScratch struct {
	_ noCopy
	// The activation plane, batch x stride at the engine's element width:
	// gathered features, then each layer's output finished in place. Only
	// the field matching the engine's format is sized.
	x16 []int16
	x32 []int32
	// acc is the batch x stride plane of exact wide GEMM accumulators.
	acc []int64

	obs GatherObs
}

// noCopy is a zero-size marker whose Lock method makes vet's copylocks check
// report any copy of the struct that holds it.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// GatherObs returns the observability record of the scratch's most recent
// gather. Valid between a gather's return and the next gather on the scratch.
func (s *BatchScratch) GatherObs() GatherObs { return s.obs }

// SetGatherObs overwrites the record — the cluster coordinator uses this to
// replace a partial-gather record with the merged scatter-wide one.
func (s *BatchScratch) SetGatherObs(o GatherObs) { s.obs = o }

// EnsurePlane sizes a scratch (a zero value, or one last used by any other
// engine) to hold batches of up to b queries on this engine, so later stage
// calls on it never allocate. The serving drains use this to pre-allocate
// their batch planes at construction.
func (e *Engine) EnsurePlane(s *BatchScratch, b int) { e.dp.ensure(s, b) }

// ValidateQuery checks a query's shape, layout and index ranges against the
// model without running inference, so servers can reject a malformed query at
// admission. The layout is embedding.Query's: one array of indices, table
// after table, with each table's slice the window of it at the table's
// offset (embedding.NewQuery builds it). The validated hot paths
// (the stage calls, the gather loop) rely on this having been called
// exactly once per query, and read each index from that one array.
func (e *Engine) ValidateQuery(q embedding.Query) error {
	if len(q) != len(e.spec.Tables) {
		return fmt.Errorf("core: query covers %d tables, model has %d", len(q), len(e.spec.Tables))
	}
	all := indices(q)
	for i, t := range e.spec.Tables {
		if len(q[i]) != t.Lookups {
			return fmt.Errorf("core: table %q expects %d lookups, query has %d", t.Name, t.Lookups, len(q[i]))
		}
		if at := e.indexOffset[i]; at+t.Lookups > len(all) || &q[i][0] != &all[at] {
			return fmt.Errorf("core: table %q's indices are not at offset %d of the query's one index array (build queries with NewQuery)", t.Name, at)
		}
		for _, idx := range q[i] {
			if idx < 0 || idx >= t.Rows {
				return fmt.Errorf("core: index %d out of range for table %q (%d rows)", idx, t.Name, t.Rows)
			}
		}
	}
	return nil
}

// validateBatch runs ValidateQuery over a batch, naming the failing query.
func (e *Engine) validateBatch(queries []embedding.Query) error {
	for i, q := range queries {
		if err := e.ValidateQuery(q); err != nil {
			return fmt.Errorf("core: query %d: %w", i, err)
		}
	}
	return nil
}

// inferBatchValidated is the validated hot path of InferOne and Infer,
// composed of the three stage entry points the serving drains also drive
// (gather plane → hidden GEMM tower → output tail), writing one prediction
// per query into dst. Running them back-to-back here IS the monolithic
// datapath, so both drains are bit-identical by construction.
func (e *Engine) inferBatchValidated(queries []embedding.Query, dst []float32, s *BatchScratch) {
	b := len(queries)
	e.dp.ensure(s, b)
	e.GatherIntoPlane(queries, s)
	e.DenseFromPlane(b, s)
	e.TailFromPlane(b, s, dst)
}

// GatherIntoPlane is the pipeline's first stage: the batched table-major
// gather, copying each embedding row, stored at the plane's width, directly
// into the plane's feature rows. Queries must have passed ValidateQuery and
// the plane must be sized (EnsurePlane or a prior stage run) for at least
// len(queries); the call then performs no validation and no allocation.
//
//microrec:noalloc
func (e *Engine) GatherIntoPlane(queries []embedding.Query, s *BatchScratch) {
	e.gatherBatchValidated(queries, s)
}

// DenseFromPlane is the pipeline's second stage: the hidden FC tower as
// blocked GEMMs over a gathered plane, each layer finished in place (bias
// add + ReLU). It touches only the plane, so distinct planes can occupy the
// gather and GEMM stages concurrently.
//
//microrec:noalloc
func (e *Engine) DenseFromPlane(b int, s *BatchScratch) { e.dp.dense(b, s) }

// TailFromPlane is the pipeline's final stage: the output FC layer (bias, no
// ReLU) plus the sigmoid, dequantizing one prediction per query into dst.
//
//microrec:noalloc
func (e *Engine) TailFromPlane(b int, s *BatchScratch, dst []float32) { e.dp.tail(b, s, dst) }
