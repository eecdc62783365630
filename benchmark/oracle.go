package main

import "microrec"

// Correctness oracles that do not come from the program under test at run
// time. A performance change must leave both untouched; a change to the
// numerics has to edit this file, which makes it a visible event.

// seed1Checksums are the FNV-1a fingerprints of the expected predictions for
// -seed 1 (rig.checksum), recorded at the commit that defined the benchmark.
// dense_sat and light_closed share an engine shape and a pool, hence a value.
var seed1Checksums = map[string]uint64{
	"dense_sat":     0xa9a61059d4a20afd,
	"light_closed":  0xa9a61059d4a20afd,
	"tiered_routed": 0x7fad054c72983d2e,
	"embed_lookup":  0xa91e5cdd9e16c06c,
}

// referenceTolerance bounds |fixed-point prediction - float32 reference| per
// datapath precision: twice the largest error seen over 64 sampled pool
// entries on seeds 1-10 at the defining commit (Fixed16: 8.43e-4 on the large
// model, 7.55e-4 on the small; Fixed32: 3.28e-6).
func referenceTolerance(precision microrec.Format) float64 {
	if precision == microrec.Fixed32 {
		return 6.6e-6
	}
	return 1.7e-3
}
