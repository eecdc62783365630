package core

import (
	"fmt"
	"runtime"
	"sync"

	"microrec/internal/embedding"
	"microrec/internal/hotcache"
	"microrec/internal/kernels"
	"microrec/internal/model"
	"microrec/internal/tensor"
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
	featureLen    int

	// dp is the width-native datapath: the quantized embedding tables and FC
	// tower and every loop that reads or writes an activation plane,
	// instantiated at the format's storage width (see plane.go).
	dp   datapath
	dims [][2]int

	// gplan is the compiled batched-gather schedule (see gather.go).
	gplan gatherPlan
	// cache is the optional live hot-row cache (Config.HotCacheBytes).
	cache *hotcache.Live
	// tier is the optional tiered backing store (Config.ColdTier): hot rows
	// pinned in DRAM, the full row set in an mmap'd cold file. Engines with
	// a tier must be Closed.
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
		dims:   spec.LayerDims(),
	}
	e.onePool.New = func() interface{} { return new(oneScratch) }
	e.featureOffset = make([]int, len(spec.Tables))
	off := 0
	for i, t := range spec.Tables {
		e.featureOffset[i] = off
		off += t.Dim * t.Lookups
	}
	e.featureLen = off + spec.DenseDim
	if got := spec.FeatureLen(); e.featureLen != got {
		return nil, fmt.Errorf("core: feature length mismatch %d vs %d", e.featureLen, got)
	}
	e.gplan = e.compileGatherPlan()
	var err error
	if cfg.HotCacheBytes > 0 {
		live, err := hotcache.NewLive(cfg.HotCacheBytes, 0)
		if err != nil {
			return nil, err
		}
		e.cache = live
	}
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
	if e.tier != nil {
		if e.cache == nil {
			// Tiered placement is harvested from the live cache, so a tiered
			// engine needs one: default to the hot-tier budget (floored so an
			// all-cold budget still leaves a usable harvest window).
			capacity := e.tier.HotBudgetBytes()
			if capacity < 1<<20 {
				capacity = 1 << 20
			}
			live, err := hotcache.NewLive(capacity, 0)
			if err != nil {
				e.tier.Close()
				return nil, err
			}
			e.cache = live
		}
		e.tier.AddSource(e.cache)
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
// (spec order, lookup-minor), reading every row as the parameters' float —
// regenerated from the stream's checkpoints (model.Parameters.ReadRows), not
// from the engine's quantized tables. It is the float reference of the
// quantized GatherBatch path and performs no hot-cache accounting.
func (e *Engine) Gather(q embedding.Query, dst []float32) ([]float32, error) {
	if err := e.ValidateQuery(q); err != nil {
		return nil, err
	}
	if dst == nil {
		dst = make([]float32, e.featureLen)
	} else if len(dst) != e.featureLen {
		return nil, fmt.Errorf("core: dst length %d, want %d", len(dst), e.featureLen)
	}
	reads := make([]model.RowRead, 0, e.spec.NumLookups())
	for t, ts := range e.spec.Tables {
		for r, idx := range q[t] {
			off := e.featureOffset[t] + r*ts.Dim
			reads = append(reads, model.RowRead{Table: t, Index: idx, Dst: dst[off : off+ts.Dim]})
		}
	}
	if err := e.params.ReadRows(reads); err != nil {
		return nil, err
	}
	return dst, nil
}

// InferOne runs one query through the fixed-point datapath and returns the
// predicted CTR in [0, 1]. It shares the batched gather + GEMM datapath as a
// batch of one (bit-identical by construction) on a pooled scratch, so the
// single-query path is allocation-free in steady state and feeds the live
// hot-row cache like any other traffic.
func (e *Engine) InferOne(q embedding.Query) (float32, error) {
	if err := e.ValidateQuery(q); err != nil {
		return 0, err
	}
	os := e.onePool.Get().(*oneScratch)
	os.qs[0] = q
	_, err := e.inferBatchValidated(os.qs[:], os.out[:], &os.s)
	pred := os.out[0]
	os.qs[0] = nil
	e.onePool.Put(os)
	if err != nil {
		return 0, err
	}
	return pred, nil
}

// ReferenceOne computes the same prediction in float32 (the software
// reference used to measure quantization error).
func (e *Engine) ReferenceOne(q embedding.Query) (float32, error) {
	feat, err := e.Gather(q, nil)
	if err != nil {
		return 0, err
	}
	x := feat
	weights, biases := e.params.Layers()
	for l := range e.dims {
		y, err := tensor.VecMat(x, weights[l])
		if err != nil {
			return 0, err
		}
		for j := range y {
			y[j] += biases[l][j]
		}
		if l < len(e.dims)-1 {
			tensor.ReLU(y)
		}
		x = y
	}
	out := []float32{x[0]}
	tensor.Sigmoid(out)
	return out[0], nil
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
	if err := e.validateBatch(queries, 0); err != nil {
		return nil, err
	}
	preds := make([]float32, len(queries))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
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
				if _, err := e.inferBatchValidated(queries[lo:end], preds[lo:end], &s); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return &InferResult{Predictions: preds}, nil
}
