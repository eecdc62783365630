package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// naiveMatMul is the O(mnk) reference used to validate the blocked kernel.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float32
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, sum)
		}
	}
	return c
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(-1, 2): want panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {17, 31, 13}, {64, 64, 64}, {100, 352, 64}, {3, 200, 1},
	}
	for _, s := range shapes {
		a := randomMatrix(rng, s.m, s.k)
		b := randomMatrix(rng, s.k, s.n)
		got, err := MatMul(a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveMatMul(a, b)
		if !equal(got, want, 1e-3) {
			t.Errorf("MatMul %dx%dx%d differs from naive", s.m, s.k, s.n)
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 5)
	if _, err := MatMul(a, b, nil); err == nil {
		t.Error("MatMul with inner mismatch: want error")
	}
	b = NewMatrix(3, 5)
	bad := NewMatrix(1, 1)
	if _, err := MatMul(a, b, bad); err == nil {
		t.Error("MatMul with wrong output shape: want error")
	}
}

func TestMatMulReusesOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 8, 8)
	b := randomMatrix(rng, 8, 8)
	c := NewMatrix(8, 8)
	// Pre-fill with garbage to verify the kernel overwrites.
	for i := range c.Data {
		c.Data[i] = 999
	}
	got, err := MatMul(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Data[0] != &c.Data[0] {
		t.Error("MatMul did not reuse provided output")
	}
	if !equal(got, naiveMatMul(a, b), 1e-3) {
		t.Error("MatMul into reused output is wrong")
	}
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
		want := matVec(a.Transpose(), x)
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

func TestTranspose(t *testing.T) {
	a, _ := fromRows([][]float32{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 0) != 3 || at.At(0, 1) != 4 {
		t.Errorf("Transpose = %+v", at)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 9, 14)
	if !equal(a.Transpose().Transpose(), a, 0) {
		t.Error("double transpose differs from original")
	}
}

func TestAddBias(t *testing.T) {
	m, _ := fromRows([][]float32{{1, 2}, {3, 4}})
	if err := AddBias(m, []float32{10, 20}); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Errorf("AddBias = %+v", m.Data)
	}
	if err := AddBias(m, []float32{1}); err == nil {
		t.Error("AddBias length mismatch: want error")
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

// Property: (A*B)^T == B^T * A^T within float tolerance.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		m, k, n := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		ab, err := MatMul(a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		btat, err := MatMul(b.Transpose(), a.Transpose(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !equal(ab.Transpose(), btat, 1e-3) {
			t.Fatalf("(AB)^T != B^T A^T for %dx%dx%d", m, k, n)
		}
	}
}

// Property: multiplying by the identity preserves the matrix.
func TestMatMulIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := randomMatrix(rng, n, n)
		id := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		out, err := MatMul(a, id, nil)
		if err != nil {
			return false
		}
		return equal(out, a, 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMatMul352x1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 64, 352)
	w := randomMatrix(rng, 352, 1024)
	c := NewMatrix(64, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(a, w, c); err != nil {
			b.Fatal(err)
		}
	}
}

// fromRows builds a matrix from a slice of equal-length rows.
func fromRows(rows [][]float32) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("tensor: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// equal reports whether two matrices have identical shape and elements within
// tolerance eps.
func equal(a, b *Matrix, eps float32) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > eps {
			return false
		}
	}
	return true
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
