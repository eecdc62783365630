// Package tensor provides the dense float32 linear algebra used by the
// reference model implementation and the CPU baseline engine: row-major
// matrices, a cache-blocked multi-goroutine GEMM, and the activations a CTR
// model needs.
//
// It deliberately covers only what recommendation inference requires; it is
// not a general array library.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// MatMul computes C = A * B. A is (m x k), B is (k x n), C is (m x n).
// C is allocated if nil; otherwise it must have the right shape. The
// computation is split across goroutines by row blocks, which is how the CPU
// baseline engine exploits the machine's cores.
func MatMul(a, b, c *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("tensor: MatMul shape mismatch (%dx%d)*(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if c == nil {
		c = NewMatrix(a.Rows, b.Cols)
	} else if c.Rows != a.Rows || c.Cols != b.Cols {
		return nil, fmt.Errorf("tensor: MatMul output shape %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols)
	}
	parallelRows(a.Rows, func(lo, hi int) {
		matMulRange(a, b, c, lo, hi)
	})
	return c, nil
}

// matMulRange computes rows [lo, hi) of C = A*B with k-blocked accumulation
// that keeps B panels hot in cache.
func matMulRange(a, b, c *Matrix, lo, hi int) {
	const kBlock = 64
	n := b.Cols
	for i := lo; i < hi; i++ {
		ci := c.Row(i)
		for x := range ci {
			ci[x] = 0
		}
		ai := a.Row(i)
		for k0 := 0; k0 < a.Cols; k0 += kBlock {
			k1 := k0 + kBlock
			if k1 > a.Cols {
				k1 = a.Cols
			}
			for k := k0; k < k1; k++ {
				aik := ai[k]
				if aik == 0 {
					continue
				}
				bk := b.Data[k*n : (k+1)*n]
				for j, bv := range bk {
					ci[j] += aik * bv
				}
			}
		}
	}
}

// VecMat computes y = xᵀ * A for a length-k vector and a (k x n) matrix.
// Each y[j] accumulates x[i]*A[i][j] over i ascending from zero: per output,
// the float32 operations of a row-by-row product with A's transpose, without
// the transpose.
func VecMat(x []float32, a *Matrix) ([]float32, error) {
	if a.Rows != len(x) {
		return nil, fmt.Errorf("tensor: VecMat shape mismatch %d*(%dx%d)", len(x), a.Rows, a.Cols)
	}
	y := make([]float32, a.Cols)
	for i, xi := range x {
		for j, v := range a.Row(i) {
			y[j] += v * xi
		}
	}
	return y, nil
}

// AddBias adds bias (length Cols) to every row of m in place.
func AddBias(m *Matrix, bias []float32) error {
	if len(bias) != m.Cols {
		return fmt.Errorf("tensor: bias length %d, want %d", len(bias), m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += bias[j]
		}
	}
	return nil
}

// ReLU applies max(0, x) elementwise in place.
func ReLU(xs []float32) {
	for i, v := range xs {
		if v < 0 {
			xs[i] = 0
		}
	}
}

// Sigmoid applies the logistic function elementwise in place.
func Sigmoid(xs []float32) {
	for i, v := range xs {
		xs[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

// parallelRows splits [0, n) into contiguous chunks, one per worker, and runs
// fn on each concurrently. Small n runs inline to avoid goroutine overhead.
func parallelRows(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 16 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
