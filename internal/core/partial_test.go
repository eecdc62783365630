package core

import (
	"fmt"
	"math/rand"
	"testing"

	"microrec/internal/fixedpoint"
	"microrec/internal/model"
)

// randomPartition splits [0, n) into up to k non-empty groups.
func randomPartition(rng *rand.Rand, n, k int) [][]int {
	if k > n {
		k = n
	}
	groups := make([][]int, k)
	perm := rng.Perm(n)
	for i, ti := range perm {
		if i < k {
			groups[i] = append(groups[i], ti) // every group non-empty
			continue
		}
		g := rng.Intn(k)
		groups[g] = append(groups[g], ti)
	}
	return groups
}

// TestPartialSpansCoverEmbeddingRegion checks that a partition's merged spans
// are disjoint across groups and together cover exactly the embedding region
// [0, featureLen-denseDim) — the invariant the cluster merge relies on.
func TestPartialSpansCoverEmbeddingRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		spec := randomSpec(rng, fmt.Sprintf("span-%d", trial))
		e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
		nt := len(e.Spec().Tables)
		for _, k := range []int{1, 2, 3} {
			parts := randomPartition(rng, nt, k)
			covered := make([]int, e.spec.FeatureLen())
			for _, tables := range parts {
				spans, err := e.PartialSpans(tables)
				if err != nil {
					t.Fatal(err)
				}
				last := -1
				for _, sp := range spans {
					if sp.Off <= last {
						t.Fatalf("spans not ascending/merged: %+v", spans)
					}
					last = sp.Off + sp.Len - 1
					for c := sp.Off; c < sp.Off+sp.Len; c++ {
						covered[c]++
					}
				}
			}
			embEnd := e.spec.FeatureLen() - e.spec.DenseDim
			for c := 0; c < embEnd; c++ {
				if covered[c] != 1 {
					t.Fatalf("%s k=%d: column %d covered %d times", spec.Name, k, c, covered[c])
				}
			}
			for c := embEnd; c < e.spec.FeatureLen(); c++ {
				if covered[c] != 0 {
					t.Fatalf("%s k=%d: dense column %d claimed by a table span", spec.Name, k, c)
				}
			}
		}
	}
}

// TestPartialGatherMergeMatchesMonolithic is the datapath half of the
// cluster's bit-identity argument, pinned at the core layer: gathering a
// random partition's subsets into separate planes and merging their spans
// reproduces the monolithic GatherIntoPlane bit for bit.
func TestPartialGatherMergeMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		spec := randomSpec(rng, fmt.Sprintf("pmerge-%d", trial))
		f := fixedpoint.Fixed16
		if trial%2 == 1 {
			f = fixedpoint.Fixed32
		}
		e := buildEngine(t, spec, Config{Precision: f})
		nt := len(e.Spec().Tables)
		for _, b := range []int{1, 5, 33} {
			qs := randomQueries(spec, b, int64(trial*100+b))
			var want BatchScratch
			e.EnsurePlane(&want, b)
			e.GatherIntoPlane(qs, &want)

			k := 1 + rng.Intn(4)
			parts := randomPartition(rng, nt, k)
			var merged BatchScratch
			e.EnsurePlane(&merged, b)
			// Poison the plane (whichever width it is) so untouched
			// columns are caught.
			for i := range merged.x16 {
				merged.x16[i] = -7777
			}
			for i := range merged.x32 {
				merged.x32[i] = -7777
			}
			e.ZeroDenseTail(b, &merged)
			for _, tables := range parts {
				var partial BatchScratch
				e.EnsurePlane(&partial, b)
				spans, err := e.PartialSpans(tables)
				if err != nil {
					t.Fatal(err)
				}
				e.GatherPartialIntoPlane(tables, qs, &partial)
				e.MergePartialPlane(b, spans, &partial, &merged)
			}
			for qi := 0; qi < b; qi++ {
				for c := 0; c < e.spec.FeatureLen(); c++ {
					if got, mono := featureAt(e, &merged, qi, c), featureAt(e, &want, qi, c); got != mono {
						t.Fatalf("%s %v b=%d k=%d query %d col %d: merged %d, monolithic %d",
							spec.Name, f, b, k, qi, c, got, mono)
					}
				}
			}
		}
	}
}

// TestPartialGatherColdFaults checks the cold-fault count a partial gather
// leaves in its scratch: on a tiered engine with part of every stream pinned
// hot, the counts of a partition's subsets add up to the monolithic gather's.
func TestPartialGatherColdFaults(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, tierTestConfig(-1))
	defer e.Close()
	store := e.Tier()
	for id := 0; id < store.Streams(); id++ {
		var hot []int64
		for r := int64(0); r < e.params.ActualRows[id]; r += 2 {
			hot = append(hot, r)
		}
		store.SetPlacement(id, hot)
	}
	rng := rand.New(rand.NewSource(17))
	for _, b := range []int{1, 7, 64} {
		qs := randomQueries(spec, b, int64(b))
		var whole BatchScratch
		e.EnsurePlane(&whole, b)
		e.GatherIntoPlane(qs, &whole)
		want := whole.GatherObs().ColdFaults
		if want == 0 {
			t.Fatalf("b=%d: the monolithic gather read no cold rows", b)
		}
		var sum int64
		var partial BatchScratch
		e.EnsurePlane(&partial, b)
		for _, tables := range randomPartition(rng, len(e.Spec().Tables), 3) {
			e.GatherPartialIntoPlane(tables, qs, &partial)
			sum += partial.GatherObs().ColdFaults
		}
		if sum != want {
			t.Errorf("b=%d: partial gathers report %d cold faults, the monolithic gather %d", b, sum, want)
		}
	}
}

// TestPartialSpansErrors covers the index contract.
func TestPartialSpansErrors(t *testing.T) {
	e := buildEngine(t, model.SmallProduction(), Config{Precision: fixedpoint.Fixed16})
	if _, err := e.PartialSpans([]int{-1}); err == nil {
		t.Fatal("negative table index did not error")
	}
	if _, err := e.PartialSpans([]int{len(e.Spec().Tables)}); err == nil {
		t.Fatal("out-of-range table index did not error")
	}
}
