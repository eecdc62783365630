package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(-1, 2): want panic")
		}
	}()
	NewMatrix(-1, 2)
}

// TestVecMatMatchesTransposedMatVec holds VecMat bit for bit to matVec over
// the transpose, zeros in x included (a ReLU output has many).
func TestVecMatMatchesTransposedMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sh := range [][2]int{{1, 1}, {3, 2}, {352, 64}, {200, 1}} {
		a := randomMatrix(rng, sh[0], sh[1])
		x := make([]float32, sh[0])
		for i := range x {
			if rng.Intn(3) > 0 {
				x[i] = rng.Float32()*4 - 2
			}
		}
		got, err := VecMat(x, a)
		if err != nil {
			t.Fatal(err)
		}
		want := matVec(transpose(a), x)
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("%dx%d: y[%d] = %v, want %v", sh[0], sh[1], j, got[j], want[j])
			}
		}
	}
	if _, err := VecMat([]float32{1}, NewMatrix(2, 2)); err == nil {
		t.Error("VecMat length mismatch: want error")
	}
}

// TestMatrixRowIsView checks that Row(i) is row i of Data, not a copy:
// writes through it land in the matrix.
func TestMatrixRowIsView(t *testing.T) {
	m := NewMatrix(3, 2)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	r := m.Row(1)
	if len(r) != 2 || r[0] != 2 || r[1] != 3 {
		t.Fatalf("Row(1) = %v, want [2 3]", r)
	}
	r[1] = 9
	if m.Data[3] != 9 {
		t.Error("write through Row(1) did not reach Data")
	}
}

func TestReLUAndSigmoid(t *testing.T) {
	xs := []float32{-1, 0, 2}
	ReLU(xs)
	if xs[0] != 0 || xs[2] != 2 {
		t.Errorf("ReLU = %v", xs)
	}
	ys := []float32{0}
	Sigmoid(ys)
	if math.Abs(float64(ys[0]-0.5)) > 1e-6 {
		t.Errorf("Sigmoid(0) = %v, want 0.5", ys[0])
	}
}

// matVec computes y = A * x for a (m x k) matrix and length-k vector, one
// row's dot product at a time: the reference VecMat is held to.
func matVec(a *Matrix, x []float32) []float32 {
	y := make([]float32, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var sum float32
		for j, v := range a.Row(i) {
			sum += v * x[j]
		}
		y[i] = sum
	}
	return y
}

// transpose returns aᵀ.
func transpose(a *Matrix) *Matrix {
	t := NewMatrix(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}
