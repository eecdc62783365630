package main

import (
	"fmt"
	"os"

	"microrec/internal/metrics"
	"microrec/internal/model"
)

func cmdSpec(args []string) error {
	fs := newFlagSet("spec")
	modelName := fs.String("model", "small", "model: small or large")
	asJSON := fs.Bool("json", false, "emit the spec as JSON instead of a summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := specByName(*modelName)
	if err != nil {
		return err
	}
	if *asJSON {
		return model.SaveSpec(os.Stdout, spec)
	}
	c, err := model.Characterize(spec)
	if err != nil {
		return err
	}
	fmt.Printf("model:            %s\n", spec.Name)
	fmt.Printf("tables:           %d (%d lookups/item)\n", c.Tables, c.LookupsPerItem)
	fmt.Printf("feature length:   %d\n", c.FeatureLen)
	fmt.Printf("hidden layers:    %v\n", spec.Hidden)
	fmt.Printf("storage:          %s\n", metrics.FmtBytes(c.StorageBytes))
	fmt.Printf("gathered/item:    %d B (avg vector %.1f B)\n", c.EmbeddingBytesItem, c.AvgVectorBytes)
	fmt.Printf("FC work/item:     %.2f MOP (%s of parameters)\n",
		float64(c.FCOpsPerItem)/1e6, metrics.FmtBytes(c.FCParamBytes))
	fmt.Printf("table sizes:      %s .. %s\n",
		metrics.FmtBytes(c.SmallestTableBytes), metrics.FmtBytes(c.LargestTableBytes))
	fmt.Printf("dims:             %v\n", model.DimsSorted(spec))
	t := metrics.NewTable("size histogram", "class", "tables")
	for _, b := range c.SizeHistogram {
		t.AddRow(b.Label, fmt.Sprint(b.Count))
	}
	fmt.Println()
	fmt.Print(t.String())
	return nil
}
