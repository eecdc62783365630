// Package core is the CPU engine: it stores the model's embedding tables at
// the fixed-point datapath's width — in DRAM, or in a tiered backing store
// that records every row read in its own frequency window and places rows
// from it — gathers a batch's lookups into a plane, and runs the FC tower
// over the plane with the SIMD GEMM kernels. It computes
// predictions and times nothing; the FPGA design the paper builds — its
// placement plan, Cartesian products, deep pipeline and resource budget — is
// modelled in internal/accel.
package core

import (
	"microrec/internal/fixedpoint"
	"microrec/internal/tieredstore"
)

// Config describes one engine build.
type Config struct {
	// Precision is the datapath fixed-point format (16- or 32-bit, §5.3).
	Precision fixedpoint.Format
	// ColdTier, when non-nil, backs every embedding access stream with a
	// two-tier store: frequency-hot rows pinned in a DRAM budget, the full
	// row set in an mmap'd cold file (internal/tieredstore), placed by the
	// reads the store records in its frequency window. Functionally
	// transparent by construction — both tiers hold the same rows, stored at
	// the datapath's width.
	// Engines built with a cold tier must be Closed.
	ColdTier *tieredstore.Config
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Precision.Validate(); err != nil {
		return err
	}
	if c.ColdTier != nil {
		if err := c.ColdTier.Validate(); err != nil {
			return err
		}
	}
	return nil
}
