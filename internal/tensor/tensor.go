// Package tensor provides the dense float32 linear algebra of the model's
// float reference (model.Parameters.Forward): row-major matrices, a
// vector-matrix product, and the activations a CTR model needs.
//
// It deliberately covers only what recommendation inference requires; it is
// not a general array library.
package tensor

import (
	"fmt"
	"math"
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
