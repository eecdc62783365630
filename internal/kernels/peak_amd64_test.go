//go:build amd64 && !noasm

package kernels

import (
	"testing"

	"microrec/internal/offheap"
)

// BenchmarkPeak measures the compute ceilings of the GEMM kernels' inner
// steps on this host, in the unit BenchmarkGEMMKernel reports: the 32-bit FMA
// kernels' VFMADD231PD (8 MACs a zmm) and the 16-bit VNNI tile's VPDPWSSD
// (32). A kernel reads as a fraction of its instruction's peak from one run.
// The memory ceilings follow (benchMemoryPeaks).
func BenchmarkPeak(b *testing.B) {
	avx512 := cpuFeatures().avx512vnni
	for _, p := range []struct {
		name string
		run  func(n int)
		macs int // per iteration
	}{
		{"avx512-vfmadd231pd", peakFMA, 12 * 8},
		{"avx512-vpdpwssd", peakVPDPWSSD, 12 * 32},
	} {
		b.Run(p.name, func(b *testing.B) {
			if !avx512 {
				b.Skip("host lacks AVX512F+BW+VL+VNNI with OS-enabled opmask and zmm state")
			}
			const iters = 1 << 14
			for n := 0; n < b.N; n++ {
				p.run(iters)
			}
			b.ReportMetric(float64(p.macs)*iters*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MACs/ns")
		})
	}
	benchMemoryPeaks(b)
}

// memProbeBytes is the memory probes' buffer: 256 MiB, past the last-level
// cache of the hosts this repository is measured on (105 MiB of L3 on the
// 2-vCPU Xeon in ROADMAP.md). A host whose LLC holds it reads cache here,
// not DRAM.
const memProbeBytes = 256 << 20

var memSink uint64

// benchMemoryPeaks measures the memory ceilings the gather and the engine
// build are read against, over offheap mappings (huge pages where the kernel
// grants the advice, as the engine's tables get):
//
//   - mem-first-touch: µs per MiB to write one word of every 4 KiB page of a
//     fresh mapping (the page faults and zeroing an engine build's fill
//     pays; the mapping and unmapping are not timed);
//   - mem-read-independent: ns per random 64-byte line read whole, the
//     addresses from a register generator, so the core keeps as many misses
//     in flight as it can (the gather's case);
//   - mem-read-dependent: ns per line of a chase through a random cycle of
//     every line, each read's address the previous read's value (latency);
//   - mem-copy: GB/s copied from one half of the buffer to the other.
func benchMemoryPeaks(b *testing.B) {
	const words, lines = memProbeBytes / 8, memProbeBytes / 64
	b.Run("mem-first-touch", func(b *testing.B) {
		b.StopTimer()
		for n := 0; n < b.N; n++ {
			m := offheap.Make[uint64](words)
			b.StartTimer()
			for i := 0; i < words; i += 4096 / 8 {
				m[i] = 1
			}
			b.StopTimer()
			offheap.Free(m)
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/(memProbeBytes>>20), "us/MiB")
	})

	// The read probes share one buffer whose every line's first word is the
	// next line of a random cycle (Sattolo's shuffle), touched before any
	// timing.
	var buf []uint64
	defer func() { offheap.Free(buf) }()
	probe := func() []uint64 {
		if buf == nil {
			buf = offheap.Make[uint64](words)
			for l := 0; l < lines; l++ {
				buf[l*8] = uint64(l)
			}
			x := uint64(0x9e3779b97f4a7c15)
			for l := lines - 1; l > 0; l-- {
				x = xorshift(x)
				j := int(x % uint64(l))
				buf[l*8], buf[j*8] = buf[j*8], buf[l*8]
			}
		}
		return buf
	}

	b.Run("mem-read-independent", func(b *testing.B) {
		buf := probe()
		const reads = 1 << 20
		b.ResetTimer()
		x, s := uint64(1), uint64(0)
		for n := 0; n < b.N; n++ {
			for r := 0; r < reads; r++ {
				x = xorshift(x)
				line := buf[x%lines*8:][:8]
				s += line[0] + line[1] + line[2] + line[3] + line[4] + line[5] + line[6] + line[7]
			}
		}
		memSink = s
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/reads, "ns/line")
	})
	b.Run("mem-read-dependent", func(b *testing.B) {
		buf := probe()
		const reads = 1 << 18
		b.ResetTimer()
		l := uint64(0)
		for n := 0; n < b.N; n++ {
			for r := 0; r < reads; r++ {
				l = buf[l*8]
			}
		}
		memSink = l
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/reads, "ns/line")
	})
	// Last: the copy overwrites the cycle's second half.
	b.Run("mem-copy", func(b *testing.B) {
		buf := probe()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			copy(buf[words/2:], buf[:words/2])
		}
		b.ReportMetric(float64(memProbeBytes/2)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GB/s")
	})
}

// xorshift is Marsaglia's 64-bit xorshift step.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
