package main

import (
	"flag"
	"fmt"

	"microrec"
)

// addColdTierFlags registers the tiered embedding-store flags shared by
// serve and loadtest. The returned apply validates the flags into the
// engine options; cmd prefixes its error messages. -hot-bytes is rejected
// without -cold-tier instead of being silently ignored — there is no hot/cold
// split to budget on an all-DRAM engine.
func addColdTierFlags(fs *flag.FlagSet, cmd string) func(*microrec.EngineOptions) error {
	coldTier := fs.String("cold-tier", "", "tiered embedding store: back all rows with an mmap'd cold file at this path ('tmp' = unnamed temp file, removed on close) and pin frequent rows in a DRAM hot tier; /stats gains tiers (per-tier stats) and hotcache (the frequency window placement is swept from)")
	hotBytes := fs.Int64("hot-bytes", 0, "DRAM hot-tier byte budget (0 = a quarter of the model's embedding bytes, so the model is 4x the hot tier; negative = all-cold); requires -cold-tier")
	return func(o *microrec.EngineOptions) error {
		if *coldTier == "" {
			if *hotBytes != 0 {
				return fmt.Errorf("%s: -hot-bytes requires -cold-tier", cmd)
			}
			return nil
		}
		o.ColdTier = true
		if *coldTier != "tmp" {
			o.ColdTierPath = *coldTier
		}
		o.HotTierBytes = *hotBytes
		return nil
	}
}

// tierSnapshot returns the engine's tier snapshot for the JSON reports, nil
// on an all-DRAM engine (omitempty keeps the baseline schema unchanged).
func tierSnapshot(eng *microrec.Engine) *microrec.TierStats {
	if store := eng.Tier(); store != nil {
		snap := store.Snapshot()
		return &snap
	}
	return nil
}
