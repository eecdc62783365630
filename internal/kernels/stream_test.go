package kernels

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// extendPaths are the Extend paths, each a subtest by name: the reference,
// and Extend as dispatched, which is the vectorized path where this build
// and host installed one and is skipped where they did not (under noasm, or
// on a host without AVX-512), so it never passes on the reference unseen.
var extendPaths = []struct {
	name string
	run  func([]uint64) int
}{
	{"ref", ExtendRef},
	{"vector", Extend},
}

func runExtendPaths(t *testing.T, f func(t *testing.T, run func([]uint64) int)) {
	for _, p := range extendPaths {
		t.Run(p.name, func(t *testing.T) {
			if p.name != "ref" && extendVec == nil {
				t.Skip("no vectorized Extend on this build or host")
			}
			f(t, p.run)
		})
	}
}

// skipEdges are sums at the edges of Float32's resample test: one below the
// threshold, at it, the top of the 63-bit range, and each with the high bit
// (which the test ignores) set, and the high bit alone.
var skipEdges = []uint64{
	SkipFrom - 1, SkipFrom, 1<<63 - 1,
	1<<63 | (SkipFrom - 1), 1<<63 | SkipFrom, 1<<64 - 1, 1 << 63,
}

// randomWindow returns LagLong random draws.
func randomWindow(rng *rand.Rand) []uint64 {
	w := make([]uint64, LagLong)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

// plant sets window[o] so that new draw o (o < LagLong − LagShort) is sum.
// Its long lag is window[o], which no other new draw before LagLong reads;
// its short lag is window[o+LagLong−LagShort], or for o ≥ LagShort new draw
// o − LagShort, which follows from the window draws before o.
func plant(window []uint64, o int, sum uint64) {
	if o < LagShort {
		window[o] = sum - window[o+LagLong-LagShort]
	} else {
		window[o] = sum - (window[o-LagShort] + window[o-LagShort+LagLong-LagShort])
	}
}

// plantedWindow returns a random window whose first LagLong − LagShort new
// draws are skipEdges in turn, from the one at shift on. Planted in order,
// each new draw's short lag is already final when it is planted.
func plantedWindow(rng *rand.Rand, shift int) []uint64 {
	w := randomWindow(rng)
	for o := 0; o < LagLong-LagShort; o++ {
		plant(w, o, skipEdges[(o+shift)%len(skipEdges)])
	}
	return w
}

// checkExtend runs one path and the reference over window plus n new draws
// and requires the same draws, the same count, and nothing written past the
// buffer.
func checkExtend(t *testing.T, run func([]uint64) int, window []uint64, n int) {
	t.Helper()
	const sentinel = 0xdeadbeefcafef00d
	want := make([]uint64, LagLong+n+1)
	copy(want, window)
	want[LagLong+n] = sentinel
	got := slices.Clone(want)
	ws := ExtendRef(want[:LagLong+n])
	gs := run(got[:LagLong+n])
	if gs != ws {
		t.Fatalf("%d new draws: %d resampled, reference %d", n, gs, ws)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%d new draws: draw %d = %#x, reference %#x", n, i-LagLong, got[i], want[i])
		}
	}
}

// TestExtendBitIdentity holds every Extend path to the reference: every
// length to 40 (each tail of the vector loop), a full block, random windows
// and lengths, and windows whose first new draws sit at the resample
// threshold's edges in every lane position.
func TestExtendBitIdentity(t *testing.T) {
	runExtendPaths(t, func(t *testing.T, run func([]uint64) int) {
		rng := rand.New(rand.NewSource(8))
		for n := 0; n <= 40; n++ {
			checkExtend(t, run, randomWindow(rng), n)
		}
		checkExtend(t, run, randomWindow(rng), 1<<15)
		for trial := 0; trial < 50; trial++ {
			checkExtend(t, run, randomWindow(rng), rng.Intn(3000))
		}
		for shift := range skipEdges {
			w := plantedWindow(rng, shift)
			ext := append(slices.Clone(w), make([]uint64, LagLong-LagShort)...)
			ExtendRef(ext)
			for o, y := range ext[LagLong:] {
				if want := skipEdges[(o+shift)%len(skipEdges)]; y != want {
					t.Fatalf("planted new draw %d = %#x, want %#x", o, y, want)
				}
			}
			for _, n := range []int{0, 7, 8, 33, LagShort, LagLong - LagShort - 1, LagLong - LagShort, 1 << 15} {
				checkExtend(t, run, w, n)
			}
		}
	})
}

// FuzzExtendIdentity fuzzes every Extend path against the reference over a
// seeded random window with one new draw planted at a fuzzed sum.
func FuzzExtendIdentity(f *testing.F) {
	f.Add(int64(1), uint16(40), uint16(0), uint64(SkipFrom))
	f.Add(int64(2), uint16(334), uint16(7), uint64(SkipFrom-1))
	f.Add(int64(3), uint16(4095), uint16(333), uint64(1<<64-1))
	f.Add(int64(4), uint16(0), uint16(0), uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, n, at uint16, sum uint64) {
		rng := rand.New(rand.NewSource(seed))
		w := randomWindow(rng)
		plant(w, int(at)%(LagLong-LagShort), sum)
		runExtendPaths(t, func(t *testing.T, run func([]uint64) int) {
			checkExtend(t, run, w, int(n)%4096)
		})
	})
}

// BenchmarkExtend times every Extend path over one block of the parameter
// stream (32 768 new draws, the model's block), in ns a draw.
func BenchmarkExtend(b *testing.B) {
	const n = 1 << 15
	buf := make([]uint64, LagLong+n)
	copy(buf, randomWindow(rand.New(rand.NewSource(9))))
	for _, p := range extendPaths {
		b.Run(fmt.Sprintf("%s/n%d", p.name, n), func(b *testing.B) {
			if p.name != "ref" && extendVec == nil {
				b.Skip("no vectorized Extend on this build or host")
			}
			for i := 0; i < b.N; i++ {
				p.run(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/draw")
		})
	}
}
