package placement

import (
	"testing"

	"microrec/internal/memsim"
	"microrec/internal/model"
)

// TestValidateRejectsCorruptPlans injects structural faults into an otherwise
// valid plan and requires Validate to refuse each one.
func TestValidateRejectsCorruptPlans(t *testing.T) {
	spec := model.SmallProduction()
	fresh := func() *Result {
		plan, err := Plan(spec, memsim.U280(8), Options{EnableCartesian: true})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}

	// Sanity: the untouched plan validates.
	if err := fresh().Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}

	corruptions := map[string]func(*Result){
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
	}
	for name, corrupt := range corruptions {
		plan := fresh()
		corrupt(plan)
		if err := plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt plan", name)
		}
	}
}
