package accel

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"microrec/internal/model"
)

// validatePlan checks the structural guarantees every plan must satisfy,
// regardless of model or options: every physical table on exactly one valid
// bank, no bank over capacity, every source table in exactly one physical
// table.
func validatePlan(res *Result) error {
	sys := res.System
	if len(res.BankOf) != len(res.Layout.Tables) {
		return fmt.Errorf("assignment covers %d of %d tables", len(res.BankOf), len(res.Layout.Tables))
	}
	perBank := make([]int64, len(sys.Banks))
	for ti, bi := range res.BankOf {
		if bi < 0 || bi >= len(sys.Banks) {
			return fmt.Errorf("table %d on invalid bank %d", ti, bi)
		}
		perBank[bi] += res.Layout.Tables[ti].Bytes()
	}
	for bi, bytes := range perBank {
		if bytes > sys.Banks[bi].Capacity {
			return fmt.Errorf("bank %d holds %d bytes, capacity %d", bi, bytes, sys.Banks[bi].Capacity)
		}
	}
	seen := make(map[int]bool)
	for _, pt := range res.Layout.Tables {
		for _, src := range pt.Sources {
			if seen[src.ID] {
				return fmt.Errorf("source table %d appears in more than one physical table", src.ID)
			}
			seen[src.ID] = true
		}
	}
	if len(seen) != len(res.Layout.Spec.Tables) {
		return fmt.Errorf("layout covers %d of %d sources", len(seen), len(res.Layout.Spec.Tables))
	}
	return nil
}

// checkPlanInvariants asserts validatePlan and that the plan's report is
// its loads evaluated.
func checkPlanInvariants(t *testing.T, res *Result) {
	t.Helper()
	if err := validatePlan(res); err != nil {
		t.Fatal(err)
	}
	rep, err := res.System.Evaluate(res.Loads())
	if err != nil {
		t.Fatalf("re-evaluating plan: %v", err)
	}
	if rep.LatencyNS != res.Report.LatencyNS {
		t.Errorf("report latency %.1f != re-evaluated %.1f", res.Report.LatencyNS, rep.LatencyNS)
	}
}

// TestValidateRejectsCorruptPlans injects structural faults into an otherwise
// valid plan and requires validatePlan to refuse each one, so the invariant
// tests above can fail.
func TestValidateRejectsCorruptPlans(t *testing.T) {
	spec := model.SmallProduction()
	fresh := func(t *testing.T) *Result {
		plan, err := Plan(spec, U280(8), Options{EnableCartesian: true})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	if err := validatePlan(fresh(t)); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*Result){
		"bank out of range": func(p *Result) { p.BankOf[0] = len(p.System.Banks) + 5 },
		"negative bank":     func(p *Result) { p.BankOf[3] = -1 },
		"short assignment":  func(p *Result) { p.BankOf = p.BankOf[:2] },
		"over capacity": func(p *Result) {
			// Pile every table onto a single 256 KB on-chip bank.
			onchip := p.System.OnChipBanks()[0]
			for i := range p.BankOf {
				p.BankOf[i] = onchip
			}
		},
		"source twice": func(p *Result) {
			p.Layout.Tables = append(p.Layout.Tables, p.Layout.Tables[0])
			p.BankOf = append(p.BankOf, p.BankOf[0])
		},
	} {
		t.Run(name, func(t *testing.T) {
			plan := fresh(t)
			corrupt(plan)
			if err := validatePlan(plan); err == nil {
				t.Error("validatePlan accepted a corrupt plan")
			}
		})
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
		return validatePlan(res) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
