package main

import (
	"fmt"
	"os"

	"microrec/internal/accel"
	"microrec/internal/experiments"
)

func cmdList() error {
	fmt.Println("available experiments:")
	for _, r := range experiments.All() {
		fmt.Printf("  %-10s %s\n", r.Name, r.Description)
	}
	return nil
}

func cmdExp(args []string) error {
	fs := newFlagSet("exp")
	items := fs.Int("items", 10000, "timing-simulation stream length")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	lpt := fs.Bool("lpt", false, "use the LPT allocator instead of the paper-faithful round-robin")
	seed := fs.Int64("seed", 1, "workload seed")
	if len(args) == 0 || len(args[0]) == 0 || args[0][0] == '-' {
		return fmt.Errorf("usage: microrec exp <name|all> [flags]")
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	opts := experiments.Options{Items: *items, Seed: *seed}
	if *lpt {
		opts.Allocator = accel.LPT
	}
	var runners []experiments.Runner
	if name == "all" {
		runners = experiments.All()
	} else {
		r, err := experiments.Find(name)
		if err != nil {
			return err
		}
		runners = append(runners, r)
	}
	for _, r := range runners {
		tables, err := r.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		for _, t := range tables {
			if *csv {
				fmt.Fprint(os.Stdout, t.CSV())
			} else {
				fmt.Fprintln(os.Stdout, t.String())
			}
		}
	}
	return nil
}
