package main

import (
	"fmt"

	"microrec/internal/accel"
	"microrec/internal/fixedpoint"
	"microrec/internal/metrics"
	"microrec/internal/model"
	"microrec/internal/placement"
)

func specByName(name string) (*model.Spec, error) {
	switch name {
	case "small":
		return model.SmallProduction(), nil
	case "large":
		return model.LargeProduction(), nil
	default:
		return nil, fmt.Errorf("unknown model %q (want small or large)", name)
	}
}

func cmdPlan(args []string) error {
	fs := newFlagSet("plan")
	modelName := fs.String("model", "small", "model to plan: small or large")
	noCart := fs.Bool("no-cartesian", false, "disable Cartesian products")
	lpt := fs.Bool("lpt", false, "use the LPT allocator")
	verbose := fs.Bool("v", false, "print every physical table's bank assignment")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := specByName(*modelName)
	if err != nil {
		return err
	}
	alloc := placement.RoundRobin
	if *lpt {
		alloc = placement.LPT
	}
	acc, err := accel.New(spec, accel.ConfigFor(spec.Name, fixedpoint.Fixed16), placement.Options{
		EnableCartesian: !*noCart,
		Allocator:       alloc,
	})
	if err != nil {
		return err
	}
	res, sys := acc.Plan, acc.Plan.System
	fmt.Printf("model:            %s (%d tables, %s)\n", spec.Name, len(spec.Tables),
		metrics.FmtBytes(spec.TotalBytes()))
	fmt.Printf("allocator:        %v\n", alloc)
	fmt.Printf("cartesian:        %v (candidates n=%d, %d products)\n",
		!*noCart, res.CandidateCount, res.Layout.NumMerged())
	fmt.Printf("physical tables:  %d (%d on-chip, %d in DRAM)\n",
		len(res.Layout.Tables), res.OnChipTables(), res.DRAMTables())
	fmt.Printf("DRAM rounds:      %d\n", res.Report.MaxOffChipRounds)
	fmt.Printf("storage:          %s (%.1f%% of baseline)\n",
		metrics.FmtBytes(res.StorageBytes()), 100*(1+res.Layout.OverheadFraction()))
	fmt.Printf("lookup latency:   %.0f ns (bottleneck bank %d)\n",
		res.Report.LatencyNS, res.Report.Bottleneck)
	if *verbose {
		t := metrics.NewTable("assignment", "physical table", "rows", "dim", "bytes", "bank", "kind")
		for ti, pt := range res.Layout.Tables {
			b := res.BankOf[ti]
			t.AddRow(pt.Name(),
				fmt.Sprint(pt.Rows()), fmt.Sprint(pt.Dim()),
				metrics.FmtBytes(pt.Bytes()),
				fmt.Sprint(b), sys.Banks[b].Kind.String())
		}
		fmt.Println()
		fmt.Print(t.String())
	}
	return nil
}
