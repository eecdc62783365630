package accel

import (
	"testing"

	"microrec/internal/model"
)

// FuzzIndexUnindex checks the mixed-radix bijection on arbitrary table
// shapes and indices.
func FuzzIndexUnindex(f *testing.F) {
	f.Add(int64(2), int64(3), int64(5), int64(1), int64(2), int64(4))
	f.Add(int64(1), int64(1), int64(1), int64(0), int64(0), int64(0))
	f.Add(int64(100), int64(7), int64(13), int64(99), int64(6), int64(12))
	f.Fuzz(func(t *testing.T, rA, rB, rC, iA, iB, iC int64) {
		norm := func(r int64) int64 { return r%1000 + 1 }
		rA, rB, rC = norm(rA), norm(rB), norm(rC)
		mod := func(i, r int64) int64 {
			i %= r
			if i < 0 {
				i += r
			}
			return i
		}
		iA, iB, iC = mod(iA, rA), mod(iB, rB), mod(iC, rC)
		a := model.TableSpec{ID: 0, Name: "a", Rows: rA, Dim: 2, Lookups: 1}
		b := model.TableSpec{ID: 1, Name: "b", Rows: rB, Dim: 3, Lookups: 1}
		c := model.TableSpec{ID: 2, Name: "c", Rows: rC, Dim: 4, Lookups: 1}
		p, err := Merge(a, b, c)
		if err != nil {
			t.Fatal(err)
		}
		row, err := p.Index([]int64{iA, iB, iC})
		if err != nil {
			t.Fatalf("Index(%d,%d,%d) of (%d,%d,%d): %v", iA, iB, iC, rA, rB, rC, err)
		}
		if row < 0 || row >= p.Rows() {
			t.Fatalf("Index out of range: %d of %d", row, p.Rows())
		}
		back, err := p.Unindex(row)
		if err != nil {
			t.Fatal(err)
		}
		if back[0] != iA || back[1] != iB || back[2] != iC {
			t.Fatalf("Unindex(%d) = %v, want [%d %d %d]", row, back, iA, iB, iC)
		}
	})
}
