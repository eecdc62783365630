package accel

import (
	"testing"

	"microrec/internal/model"
)

func TestProductArityValidation(t *testing.T) {
	spec := tinySpec(100, 200, 300)
	if _, err := Plan(spec, smallSystem(), Options{ProductArity: 1}); err == nil {
		t.Error("arity 1: want error")
	}
	if _, err := Plan(spec, smallSystem(), Options{ProductArity: 9}); err == nil {
		t.Error("arity 9: want error")
	}
}

func TestTripleProducts(t *testing.T) {
	// Nine tiny tables, three DRAM banks, no on-chip: triples can collapse
	// nine tables into three products -> one round.
	sys := System{Banks: []Bank{
		{Kind: HBM, Capacity: 1 << 26, Timing: HBMTiming},
		{Kind: HBM, Capacity: 1 << 26, Timing: HBMTiming},
		{Kind: HBM, Capacity: 1 << 26, Timing: HBMTiming},
	}}
	spec := tinySpec(10, 12, 14, 16, 18, 20, 22, 24, 26)
	res, err := Plan(spec, sys, Options{EnableCartesian: true, ProductArity: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxOffChipRounds != 1 {
		t.Errorf("triple merge rounds = %d, want 1", res.Report.MaxOffChipRounds)
	}
	if res.Layout.NumMerged() != 3 {
		t.Errorf("products = %d, want 3", res.Layout.NumMerged())
	}
	for _, pt := range res.Layout.Tables {
		if len(pt.Sources) != 3 {
			t.Errorf("product %q has %d sources, want 3", pt.Name(), len(pt.Sources))
		}
	}
}

func TestRule2PairsBeatTriplesOnProduction(t *testing.T) {
	// §3.4.2's justification for rule 2: triples consume small tables too
	// fast — at equal lookup latency the pairwise plan must use no more
	// storage than the triple plan.
	spec := model.SmallProduction()
	sys := U280(8)
	pairs, err := Plan(spec, sys, Options{EnableCartesian: true, ProductArity: 2})
	if err != nil {
		t.Fatal(err)
	}
	triples, err := Plan(spec, sys, Options{EnableCartesian: true, ProductArity: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pairs.Report.LatencyNS > triples.Report.LatencyNS+1e-9 {
		t.Errorf("pairs latency %.0f > triples %.0f", pairs.Report.LatencyNS, triples.Report.LatencyNS)
	}
	if pairs.Report.LatencyNS == triples.Report.LatencyNS &&
		pairs.StorageBytes() > triples.StorageBytes() {
		t.Errorf("pairs storage %d > triples %d at equal latency — rule 2 would be wrong",
			pairs.StorageBytes(), triples.StorageBytes())
	}
}

func TestArity2MatchesOriginalPairing(t *testing.T) {
	// The generalised grouping must reproduce the exact smallest-largest
	// pairing on the production model (Table 3's n=10 -> 5 pairs).
	spec := model.SmallProduction()
	sys := U280(8)
	res, err := Plan(spec, sys, Options{EnableCartesian: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateCount != 10 || res.Layout.NumMerged() != 5 {
		t.Errorf("n=%d, products=%d; want 10, 5", res.CandidateCount, res.Layout.NumMerged())
	}
	// Every product pairs one of the five smallest with one of the five
	// largest candidates.
	for _, pt := range res.Layout.Tables {
		if !pt.IsProduct() {
			continue
		}
		small, large := pt.Sources[0].Rows, pt.Sources[1].Rows
		if small > large {
			small, large = large, small
		}
		if small > 520 || large < 620 {
			t.Errorf("product %q pairs rows %d with %d — not smallest-with-largest",
				pt.Name(), pt.Sources[0].Rows, pt.Sources[1].Rows)
		}
	}
}
