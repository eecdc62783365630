package cpu

import (
	"fmt"
	"runtime"
	"sync"

	"microrec/internal/embedding"
	"microrec/internal/model"
	"microrec/internal/tensor"
)

// Engine is a real CPU inference engine: batched embedding gathers plus a
// float32 FC tower parallelised across goroutines. It is the executable
// counterpart of the analytic Model — what a CPU deployment of these models
// actually runs.
type Engine struct {
	spec    *model.Spec
	store   *embedding.Store
	weights []*tensor.Matrix // layer l: (in x out)
	biases  [][]float32
	dims    [][2]int
}

// NewEngine builds an engine from materialised parameters.
func NewEngine(params *model.Parameters) (*Engine, error) {
	if params == nil {
		return nil, fmt.Errorf("cpu: nil parameters")
	}
	store, err := embedding.NewStore(params)
	if err != nil {
		return nil, err
	}
	weights, biases := params.Layers()
	return &Engine{
		spec:    params.Spec,
		store:   store,
		weights: weights,
		biases:  biases,
		dims:    params.Spec.LayerDims(),
	}, nil
}

// Spec returns the engine's model.
func (e *Engine) Spec() *model.Spec { return e.spec }

// EmbedBatch gathers a batch of queries into a (B x featureLen) matrix — the
// embedding layer of Figure 1.
func (e *Engine) EmbedBatch(queries []embedding.Query) (*tensor.Matrix, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("cpu: empty batch")
	}
	feat := e.spec.FeatureLen()
	out := tensor.NewMatrix(len(queries), feat)
	var firstErr error
	var mu sync.Mutex
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
			for i := lo; i < hi; i++ {
				row := out.Row(i)
				if _, err := e.store.Gather(queries[i], row[:0]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("cpu: query %d: %w", i, err)
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
	return out, nil
}

// Forward runs the FC tower on a batch of features, returning CTR
// predictions.
func (e *Engine) Forward(features *tensor.Matrix) ([]float32, error) {
	if features == nil {
		return nil, fmt.Errorf("cpu: nil features")
	}
	x := features
	for l := range e.dims {
		y, err := tensor.MatMul(x, e.weights[l], nil)
		if err != nil {
			return nil, fmt.Errorf("cpu: layer %d: %w", l, err)
		}
		if err := tensor.AddBias(y, e.biases[l]); err != nil {
			return nil, err
		}
		if l < len(e.dims)-1 {
			tensor.ReLU(y.Data)
		}
		x = y
	}
	preds := make([]float32, x.Rows)
	for i := 0; i < x.Rows; i++ {
		preds[i] = x.At(i, 0)
	}
	tensor.Sigmoid(preds)
	return preds, nil
}

// InferBatch runs the complete inference for a batch of queries.
func (e *Engine) InferBatch(queries []embedding.Query) ([]float32, error) {
	features, err := e.EmbedBatch(queries)
	if err != nil {
		return nil, err
	}
	return e.Forward(features)
}
