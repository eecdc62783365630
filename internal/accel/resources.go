package accel

import (
	"fmt"

	"microrec/internal/model"
)

// Resources estimates the FPGA resource utilisation of a build, mirroring
// the appendix's Table 6. Like Vivado HLS's reports, it is an estimate
// assembled from per-component contributions; constants are calibrated
// against the paper's post-route numbers (see resources_test.go for the
// tolerances achieved).
type Resources struct {
	BRAM18K  int
	DSP48E   int
	FlipFlop int
	LUT      int
	URAM     int
	ClockMHz float64
}

// U280 device totals for utilisation percentages.
const (
	U280BRAM18K = 2016
	U280DSP48E  = 9024
	U280FF      = 2607360
	U280LUT     = 1303680
	U280URAM    = 960
)

// Utilization returns each resource as a fraction of the U280's capacity.
func (r Resources) Utilization() map[string]float64 {
	return map[string]float64{
		"BRAM18K": float64(r.BRAM18K) / U280BRAM18K,
		"DSP48E":  float64(r.DSP48E) / U280DSP48E,
		"FF":      float64(r.FlipFlop) / U280FF,
		"LUT":     float64(r.LUT) / U280LUT,
		"URAM":    float64(r.URAM) / U280URAM,
	}
}

// Resource model calibration constants. Derivations:
//   - DSP: each PE holds LanesPerPE multipliers plus add-tree/accumulate
//     logic; measured totals divide to ~16 DSP/PE at 16-bit and ~18 at
//     32-bit across all four builds.
//   - BRAM: PE-local weight/accumulator buffers (~4 slices per PE after
//     synthesis sharing) plus the long per-channel DRAM FIFOs the appendix
//     discusses (12 BRAM18K per off-chip channel at 32-bit AXI width).
//   - FF/LUT: dominated by PE datapaths with a per-feature term for the
//     broadcast/gather networks and a fixed lookup/control overhead.
//   - URAM: statically provisioned weight and table partitions; the paper
//     reports identical URAM for both models, so it is a per-precision
//     design constant.
const (
	offChipChannels = 34 // 32 HBM + 2 DDR
	fifoBRAMPerChan = 12
)

// EstimateResources models the build's utilisation for a given model spec.
func (c Config) EstimateResources(spec *model.Spec) (Resources, error) {
	if err := c.Validate(); err != nil {
		return Resources{}, err
	}
	if err := spec.Validate(); err != nil {
		return Resources{}, err
	}
	pes := 1 // output-layer PE
	for _, n := range c.PEsPerLayer {
		pes += n
	}
	feat := spec.FeatureLen()

	var dspPerPE, ffPerPE, lutPerPE float64
	var bramPerPE float64
	var uram int
	if c.Precision.Bits == 16 {
		dspPerPE, bramPerPE = 16, 4.0
		ffPerPE, lutPerPE = 2300, 1550
		uram = 642
	} else {
		dspPerPE, bramPerPE = 18, 4.3
		ffPerPE, lutPerPE = 2580, 1800
		uram = 770
	}
	res := Resources{
		DSP48E:   int(dspPerPE * float64(pes)),
		BRAM18K:  int(bramPerPE*float64(pes)) + fifoBRAMPerChan*offChipChannels,
		FlipFlop: int(ffPerPE*float64(pes)) + feat*14 + 12000,
		LUT:      int(lutPerPE*float64(pes)) + feat*56 + 17000,
		URAM:     uram,
		ClockMHz: c.ClockMHz,
	}
	return res, nil
}

// AXIWidthTradeoff models the appendix's design-space note: widening the AXI
// interface from 32 to 512 bits cuts per-vector transfer cycles 16x but
// multiplies FIFO BRAM cost and degrades the achievable clock, which slows
// the (compute-bound) pipeline. It returns the FIFO BRAM slices and a clock
// estimate for a given AXI width.
func AXIWidthTradeoff(axiBits int, base Config) (fifoBRAM int, clockMHz float64, err error) {
	switch axiBits {
	case 32, 64, 128, 256, 512:
	default:
		return 0, 0, fmt.Errorf("accel: unsupported AXI width %d", axiBits)
	}
	// FIFO storage grows linearly with width; the paper reports >half of
	// all BRAM at 512-bit.
	fifoBRAM = fifoBRAMPerChan * offChipChannels * axiBits / 32
	// Routing pressure degrades clock roughly 8% per doubling beyond 32.
	clockMHz = base.ClockMHz
	for w := 32; w < axiBits; w *= 2 {
		clockMHz *= 0.92
	}
	return fifoBRAM, clockMHz, nil
}
