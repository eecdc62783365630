package accel

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"microrec/internal/model"
)

// checkPlanInvariants asserts the structural guarantees every plan must
// satisfy, regardless of model or options.
func checkPlanInvariants(t *testing.T, res *Result) {
	t.Helper()
	sys := res.System
	// Every physical table is assigned to exactly one valid bank.
	if len(res.BankOf) != len(res.Layout.Tables) {
		t.Fatalf("assignment covers %d of %d tables", len(res.BankOf), len(res.Layout.Tables))
	}
	perBank := make([]int64, len(sys.Banks))
	for ti, bi := range res.BankOf {
		if bi < 0 || bi >= len(sys.Banks) {
			t.Fatalf("table %d on invalid bank %d", ti, bi)
		}
		perBank[bi] += res.Layout.Tables[ti].Bytes()
	}
	// No bank over capacity.
	for bi, bytes := range perBank {
		if bytes > sys.Banks[bi].Capacity {
			t.Errorf("bank %d holds %d bytes, capacity %d", bi, bytes, sys.Banks[bi].Capacity)
		}
	}
	// Every source table appears in exactly one physical table.
	seen := make(map[int]int)
	for _, pt := range res.Layout.Tables {
		for _, src := range pt.Sources {
			seen[src.ID]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("source table %d appears %d times", id, n)
		}
	}
	if len(seen) != len(res.Layout.Spec.Tables) {
		t.Errorf("layout covers %d of %d sources", len(seen), len(res.Layout.Spec.Tables))
	}
	// The report is consistent with the loads.
	rep, err := sys.Evaluate(res.Loads())
	if err != nil {
		t.Fatalf("re-evaluating plan: %v", err)
	}
	if rep.LatencyNS != res.Report.LatencyNS {
		t.Errorf("report latency %.1f != re-evaluated %.1f", res.Report.LatencyNS, rep.LatencyNS)
	}
}

func TestPlanInvariantsOnProductionModels(t *testing.T) {
	for _, target := range []struct {
		spec  *model.Spec
		banks int
	}{
		{model.SmallProduction(), 8},
		{model.LargeProduction(), 16},
	} {
		for _, cart := range []bool{false, true} {
			for _, alloc := range []Allocator{RoundRobin, LPT} {
				t.Run(fmt.Sprintf("%s/cartesian=%v/%v", target.spec.Name, cart, alloc), func(t *testing.T) {
					res, err := Plan(target.spec, U280(target.banks), Options{
						EnableCartesian: cart,
						Allocator:       alloc,
					})
					if err != nil {
						t.Fatal(err)
					}
					checkPlanInvariants(t, res)
				})
			}
		}
	}
}

// Property: random small models always produce invariant-satisfying plans or
// a clean error (never a corrupt plan).
func TestPlanInvariantsProperty(t *testing.T) {
	sys := System{Banks: []Bank{
		{Kind: HBM, Capacity: 1 << 22, Timing: HBMTiming},
		{Kind: HBM, Capacity: 1 << 22, Timing: HBMTiming},
		{Kind: DDR, Capacity: 1 << 26, Timing: DDRTiming},
		{Kind: OnChip, Capacity: 1 << 12, Timing: OnChipTiming},
	}}
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 2
		tables := make([]model.TableSpec, n)
		for i := range tables {
			tables[i] = model.TableSpec{
				ID:      i,
				Name:    "t",
				Rows:    int64(1 + rng.Intn(50_000)),
				Dim:     []int{4, 8, 16}[rng.Intn(3)],
				Lookups: 1,
			}
		}
		spec := &model.Spec{Name: "rand", Tables: tables, Hidden: []int{8}}
		res, err := Plan(spec, sys, Options{EnableCartesian: rng.Intn(2) == 0})
		if err != nil {
			return true // infeasible models may error cleanly
		}
		// Inline re-checks (cannot use t.Fatalf inside quick prop).
		if len(res.BankOf) != len(res.Layout.Tables) {
			return false
		}
		perBank := make([]int64, len(sys.Banks))
		for ti, bi := range res.BankOf {
			if bi < 0 || bi >= len(sys.Banks) {
				return false
			}
			perBank[bi] += res.Layout.Tables[ti].Bytes()
		}
		for bi, b := range perBank {
			if b > sys.Banks[bi].Capacity {
				return false
			}
		}
		seen := make(map[int]bool)
		for _, pt := range res.Layout.Tables {
			for _, src := range pt.Sources {
				if seen[src.ID] {
					return false
				}
				seen[src.ID] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
