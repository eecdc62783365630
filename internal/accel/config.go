// Package accel models the MicroRec accelerator, one FPGA build on an Alveo
// U280, from its memory system to its deep pipeline. It is a model, not an
// engine: the CPU engine (internal/core) computes predictions and takes none
// of it. Its files follow the paper:
//
//   - memory.go: the hybrid memory system, its HBM, DDR and on-chip banks
//     and the cost of one access (§3.2, Table 5);
//   - cartesian.go: Cartesian products of embedding tables (§3.3);
//   - placement.go: the table-combination and allocation search of
//     Algorithm 1 and its exhaustive check (§3.4);
//   - pipeline.go: the stage pipeline simulator and its Chrome trace (§4.1);
//   - config.go: a build's parameters and the Table 6 presets (§4, appendix);
//   - timing.go, model.go: the accelerator's stages fed by the plan's lookup
//     latency, and Model, which ties a spec, its plan and a build (§4, §5.3);
//   - resources.go: resource utilisation (appendix, Table 6).
package accel

import (
	"fmt"

	"microrec/internal/fixedpoint"
)

// Config describes one accelerator build, mirroring the implementation
// parameters of §4 and the appendix.
type Config struct {
	// Precision is the datapath fixed-point format (16- or 32-bit, §5.3).
	Precision fixedpoint.Format
	// ClockMHz is the achieved clock after place-and-route (Table 6:
	// 120–140 MHz depending on model and precision).
	ClockMHz float64
	// PEsPerLayer is the number of GEMM processing elements instantiated
	// for each hidden layer: (128, 128, 32) for both production models
	// (appendix).
	PEsPerLayer []int
	// LanesPerPE is the number of parallel multipliers feeding each PE's
	// add tree (§4.3). Calibrated: 12 at 16-bit, 6 at 32-bit.
	LanesPerPE int
	// ChunkOverheadCycles is the add-tree drain + pipeline overhead paid
	// per output chunk.
	ChunkOverheadCycles int
	// BroadcastWidth is the elements-per-cycle of the input feature
	// broadcast stage (§4.3).
	BroadcastWidth int
	// GatherWidth is the elements-per-cycle of the result gathering stage.
	GatherWidth int
	// FIFODepth is the depth of the inter-stage FIFOs (§4.1).
	FIFODepth int
	// OnChipBanks is the number of single-table on-chip lookup banks the
	// build instantiates (8 for the small model, 16 for the large).
	OnChipBanks int
	// HostStreamGBps, when positive, models streaming input features from
	// the host over PCIe at the given bandwidth as an extra pipeline
	// stage. Zero reproduces the paper's prototype, which caches input
	// features on the FPGA (footnote 2).
	HostStreamGBps float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Precision.Validate(); err != nil {
		return err
	}
	if c.ClockMHz <= 0 {
		return fmt.Errorf("accel: clock %v MHz", c.ClockMHz)
	}
	if len(c.PEsPerLayer) == 0 {
		return fmt.Errorf("accel: no PE layers configured")
	}
	for i, n := range c.PEsPerLayer {
		if n <= 0 {
			return fmt.Errorf("accel: layer %d has %d PEs", i, n)
		}
	}
	if c.LanesPerPE <= 0 {
		return fmt.Errorf("accel: %d lanes per PE", c.LanesPerPE)
	}
	if c.ChunkOverheadCycles < 0 {
		return fmt.Errorf("accel: negative chunk overhead")
	}
	if c.BroadcastWidth <= 0 || c.GatherWidth <= 0 {
		return fmt.Errorf("accel: broadcast/gather widths must be positive")
	}
	if c.FIFODepth < 0 {
		return fmt.Errorf("accel: negative FIFO depth")
	}
	if c.OnChipBanks < 0 {
		return fmt.Errorf("accel: negative on-chip bank count")
	}
	if c.HostStreamGBps < 0 {
		return fmt.Errorf("accel: negative host-stream bandwidth")
	}
	return nil
}

// CycleNS returns the duration of one clock cycle in nanoseconds.
func (c Config) CycleNS() float64 { return 1e3 / c.ClockMHz }

// Build targets, matching Table 6's four configurations.

// SmallFP16 is the small production model at 16-bit fixed point, 120 MHz.
func SmallFP16() Config { return makeConfig(fixedpoint.Fixed16, 120, 8) }

// SmallFP32 is the small production model at 32-bit fixed point, 140 MHz.
func SmallFP32() Config { return makeConfig(fixedpoint.Fixed32, 140, 8) }

// LargeFP16 is the large production model at 16-bit fixed point, 120 MHz.
func LargeFP16() Config { return makeConfig(fixedpoint.Fixed16, 120, 16) }

// LargeFP32 is the large production model at 32-bit fixed point, 135 MHz.
func LargeFP32() Config { return makeConfig(fixedpoint.Fixed32, 135, 16) }

func makeConfig(f fixedpoint.Format, clockMHz float64, onChipBanks int) Config {
	cfg := Config{
		Precision:      f,
		ClockMHz:       clockMHz,
		PEsPerLayer:    []int{128, 128, 32},
		BroadcastWidth: 4,
		GatherWidth:    4,
		FIFODepth:      4,
		OnChipBanks:    onChipBanks,
	}
	if f.Bits == 16 {
		cfg.LanesPerPE = 12
		cfg.ChunkOverheadCycles = 8
	} else {
		cfg.LanesPerPE = 6
		cfg.ChunkOverheadCycles = 7
	}
	return cfg
}

// ConfigFor returns the calibrated build for a model name and precision,
// defaulting to a small-model-style build with the requested on-chip banks
// for custom models.
func ConfigFor(modelName string, precision fixedpoint.Format) Config {
	switch {
	case modelName == "production-small" && precision.Bits == 16:
		return SmallFP16()
	case modelName == "production-small" && precision.Bits == 32:
		return SmallFP32()
	case modelName == "production-large" && precision.Bits == 16:
		return LargeFP16()
	case modelName == "production-large" && precision.Bits == 32:
		return LargeFP32()
	case precision.Bits == 32:
		return makeConfig(precision, 135, 8)
	default:
		return makeConfig(precision, 120, 8)
	}
}
