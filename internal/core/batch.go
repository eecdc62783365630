package core

import (
	"fmt"

	"microrec/internal/embedding"
)

// The batched datapath below is the CPU-side analogue of the paper's
// throughput argument: per-query inference streams every FC weight matrix
// from memory once per query, while a micro-batch reuses each weight block
// across the batch. Features arrive already quantized from GatherIntoPlane
// (gather.go); each FC layer is one call into internal/kernels
// (kernels.LayerRef), which walks the batch in strips of up to
// kernels.StripRows rows, each cache-resident weight block reused by the
// whole strip, and finishes every strip in place. The kernel is picked by
// the format's width at Build and by the CPU at init. The wide accumulators
// match the per-query GEMV exactly (and the optimized kernels are
// property-tested bit-identical to the portable reference), so batched
// predictions are bit-identical to InferOne. The width-native plane code
// these entry points forward to is in plane.go.

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
	// acc holds one strip's exact wide sums, kernels.StripRows x stride
	// (fewer rows for a smaller batch), finished before the next strip.
	acc []int64
	// f64 is the same strip's activations as float64, which the 32-bit
	// kernels read; sized for 32-bit engines only.
	f64 []float64

	// coldFaults is the most recent gather's count of rows the tiered store
	// read from its cold file.
	coldFaults int64
}

// noCopy is a zero-size marker whose Lock method makes vet's copylocks check
// report any copy of the struct that holds it.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// ColdFaults returns how many of the rows the scratch's most recent gather
// read the tiered store served from its cold file — the count the flight
// recorder folds into a request span. Valid between a gather's return and the
// next gather on the scratch.
func (s *BatchScratch) ColdFaults() int64 { return s.coldFaults }

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

// DenseFromPlane is the pipeline's second stage: the hidden FC tower over a
// gathered plane, each layer one kernel call finished in place (bias add +
// ReLU). It touches only the plane, so distinct planes can occupy the
// gather and GEMM stages concurrently.
//
//microrec:noalloc
func (e *Engine) DenseFromPlane(b int, s *BatchScratch) { e.dp.dense(b, s) }

// TailFromPlane is the pipeline's final stage: the output FC layer (bias, no
// ReLU) plus the sigmoid, dequantizing one prediction per query into dst.
//
//microrec:noalloc
func (e *Engine) TailFromPlane(b int, s *BatchScratch, dst []float32) { e.dp.tail(b, s, dst) }
