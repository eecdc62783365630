package core

import (
	"fmt"
	"runtime"
	"sync"

	"microrec/internal/embedding"
	"microrec/internal/kernels"
	"microrec/internal/model"
	"microrec/internal/tieredstore"
)

// Engine is a built CPU inference engine: materialised parameters with the
// embedding tables and FC weights stored in the configured fixed-point format.
// It computes CTR predictions in that format.
type Engine struct {
	cfg    Config
	spec   *model.Spec
	params *model.Parameters

	// featureOffset[srcID] is where source table srcID's vectors start in
	// the concatenated feature vector (spec order, lookup-minor).
	featureOffset []int
	// indexOffset[srcID] is where source table srcID's indices start in a
	// query's one index array (embedding.Query's layout).
	indexOffset []int

	// dp is the width-native datapath: the quantized embedding tables and FC
	// tower and every loop that reads or writes an activation plane,
	// instantiated at the format's storage width (see plane.go).
	dp datapath

	// gplan is the compiled batched-gather schedule (see gather.go).
	gplan gatherPlan
	// tier is the optional tiered backing store (Config.ColdTier): hot rows
	// pinned in DRAM, the full row set in an mmap'd cold file, placed from
	// the reads it records in its frequency window. Engines with a tier must
	// be Closed.
	tier *tieredstore.Store

	// onePool recycles the batch-of-one scratch InferOne runs on, keeping
	// the single-query path allocation-free in steady state. The engine
	// is otherwise immutable after Build.
	onePool sync.Pool

	// ownsParams makes Close release params' checkpoints (see
	// OwnParameters).
	ownsParams bool
}

// oneScratch is the pooled state of one InferOne call.
type oneScratch struct {
	s   BatchScratch
	qs  [1]embedding.Query
	out [1]float32
}

// Build assembles an engine from materialised parameters and a
// configuration. It stores the embedding tables at the format's width: in
// DRAM, or in the cold file of Config.ColdTier's store. If nothing has run the parameters' stream yet,
// that fill is its one pass; otherwise the tables are regenerated from the
// stream's checkpoints.
func Build(params *model.Parameters, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if params == nil {
		return nil, fmt.Errorf("core: nil parameters")
	}
	spec := params.Spec
	e := &Engine{
		cfg:    cfg,
		spec:   spec,
		params: params,
	}
	e.onePool.New = func() interface{} { return new(oneScratch) }
	e.featureOffset = make([]int, len(spec.Tables))
	e.indexOffset = make([]int, len(spec.Tables))
	off, at := 0, 0
	for i, t := range spec.Tables {
		e.featureOffset[i], e.indexOffset[i] = off, at
		off += t.Dim * t.Lookups
		at += t.Lookups
	}
	e.gplan = e.compileGatherPlan()
	var err error
	// The format's width selects the datapath, once: tables, planes, weights
	// and kernels are int16 for a 16-bit format and int32 for a 32-bit one.
	if f := cfg.Precision; f.Bits == 16 {
		e.dp, e.tier, err = newFixedPath(f, spec, params, cfg.ColdTier, kernels.Gemm16, kernels.FinishRow16, func(s *BatchScratch) *[]int16 { return &s.x16 })
	} else {
		e.dp, e.tier, err = newFixedPath(f, spec, params, cfg.ColdTier, kernels.Gemm32, kernels.FinishRow32, func(s *BatchScratch) *[]int32 { return &s.x32 })
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Close releases what the engine holds outside the Go heap: its embedding
// tables, its tiered backing store (stopping the placement sweep and
// removing the cold-tier file) and — if it was given them with
// OwnParameters — its model parameters' checkpoints. Large tables are not
// heap memory (see internal/offheap), so an engine that is never closed
// keeps them mapped until the process exits. Callers must have stopped every
// in-flight inference first, and must not use the engine afterwards.
// Closing twice is harmless.
func (e *Engine) Close() error {
	var err error
	e.dp.release()
	if e.tier != nil {
		err = e.tier.Close()
	}
	if e.ownsParams {
		e.params.Release()
	}
	return err
}

// OwnParameters declares that nothing but this engine uses the parameters it
// was built from, so Close releases them too. The facade's NewEngine, which
// materialises parameters only to build one engine, calls it; engines that
// share parameters (NewEngineFromParams) leave them to their caller.
func (e *Engine) OwnParameters() { e.ownsParams = true }

// Spec returns the engine's model.
func (e *Engine) Spec() *model.Spec { return e.spec }

// Config returns the engine's build configuration.
func (e *Engine) Config() Config { return e.cfg }

// Gather resolves one query into the concatenated float feature vector
// (spec order, lookup-minor; model.Parameters.Features), every row
// regenerated from the stream's checkpoints, not read from the engine's
// quantized tables. It is the float reference of the quantized gather and
// records nothing in a tiered store's frequency window.
func (e *Engine) Gather(q embedding.Query, dst []float32) ([]float32, error) {
	if err := e.ValidateQuery(q); err != nil {
		return nil, err
	}
	return e.params.Features(q, dst)
}

// InferOne runs one query through the fixed-point datapath and returns the
// predicted CTR in [0, 1]. It shares the batched gather + GEMM datapath as a
// batch of one (bit-identical by construction) on a pooled scratch, so the
// single-query path is allocation-free in steady state and feeds a tiered
// store's frequency window like any other traffic.
func (e *Engine) InferOne(q embedding.Query) (float32, error) {
	if err := e.ValidateQuery(q); err != nil {
		return 0, err
	}
	os := e.onePool.Get().(*oneScratch)
	os.qs[0] = q
	e.inferBatchValidated(os.qs[:], os.out[:], &os.s)
	pred := os.out[0]
	os.qs[0] = nil
	e.onePool.Put(os)
	return pred, nil
}

// ReferenceOne computes the same prediction in float32 (the software
// reference used to measure quantization error): Gather, then the model's
// float FC tower (model.Parameters.Forward).
func (e *Engine) ReferenceOne(q embedding.Query) (float32, error) {
	feat, err := e.Gather(q, nil)
	if err != nil {
		return 0, err
	}
	return e.params.Forward(feat, nil)
}

// inferStrip bounds the queries Infer runs through one scratch at a time. A
// plane sized for a whole chunk is garbage the size of the batch — 42 MB of
// activation and accumulator planes for the benchmark's 4 096-query pool on
// production-small — and a collection during it sets a heap goal that
// outlives the call.
const inferStrip = 256

// InferResult holds a batch's predictions.
type InferResult struct {
	Predictions []float32
}

// Infer runs a batch of queries through the fixed-point datapath. Queries are
// validated once at entry; the computation then splits the batch across
// goroutines, each running the blocked batch kernel over its chunk in strips
// of inferStrip queries on its own scratch — the engine is immutable after
// Build, so concurrent chunks are safe. Predictions are bit-identical to per-query
// InferOne.
func (e *Engine) Infer(queries []embedding.Query) (*InferResult, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: no queries")
	}
	if err := e.validateBatch(queries); err != nil {
		return nil, err
	}
	preds := make([]float32, len(queries))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(queries) {
		workers = len(queries)
	}
	chunk := (len(queries) + workers - 1) / workers
	for lo := 0; lo < len(queries); lo += chunk {
		hi := lo + chunk
		if hi > len(queries) {
			hi = len(queries)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var s BatchScratch
			for ; lo < hi; lo += inferStrip {
				end := min(lo+inferStrip, hi)
				e.inferBatchValidated(queries[lo:end], preds[lo:end], &s)
			}
		}(lo, hi)
	}
	wg.Wait()
	return &InferResult{Predictions: preds}, nil
}
