//go:build amd64 && !noasm

package kernels

// The peak loops (avx512_amd64.s) are the compute ceilings the GEMM kernels
// are read against, measured on the host by BenchmarkPeak: each runs n
// iterations of a register-only loop of one kernel step's instruction, with
// enough independent chains to cover its latency on two 512-bit ports.
// Each needs AVX512F+BW+VL+VNNI.
func peakFMA(n int)      // 12 VFMADD231PD an iteration, 96 MACs
func peakVPDPWSSD(n int) // 12 VPDPWSSD an iteration, 384 MACs
