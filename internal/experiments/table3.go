package experiments

import (
	"fmt"

	"microrec/internal/accel"
	"microrec/internal/metrics"
	"microrec/internal/model"
)

// Table3Row mirrors one row of the paper's Table 3.
type Table3Row struct {
	Model        string
	Cartesian    bool
	Tables       int
	TablesInDRAM int
	DRAMRounds   int
	StoragePct   float64
	LatencyNS    float64
	LatencyPct   float64
}

// Table3Rows computes the Cartesian benefit/overhead study for both
// production models.
func Table3Rows(opts Options) ([]Table3Row, error) {
	opts = opts.withDefaults()
	var rows []Table3Row
	for _, target := range []struct {
		spec  *model.Spec
		banks int
	}{
		{model.SmallProduction(), accel.SmallFP16().OnChipBanks},
		{model.LargeProduction(), accel.LargeFP16().OnChipBanks},
	} {
		var baseLatency float64
		for _, cart := range []bool{false, true} {
			res, err := planFor(target.spec, target.banks, cart, opts.Allocator)
			if err != nil {
				return nil, err
			}
			if !cart {
				baseLatency = res.Report.LatencyNS
			}
			rows = append(rows, Table3Row{
				Model:        target.spec.Name,
				Cartesian:    cart,
				Tables:       len(res.Layout.Tables),
				TablesInDRAM: res.DRAMTables(),
				DRAMRounds:   res.Report.MaxOffChipRounds,
				StoragePct:   100 * (1 + res.Layout.OverheadFraction()),
				LatencyNS:    res.Report.LatencyNS,
				LatencyPct:   100 * res.Report.LatencyNS / baseLatency,
			})
		}
	}
	return rows, nil
}

// RunTable3 renders the study next to the paper's values.
func RunTable3(opts Options) ([]*metrics.Table, error) {
	rows, err := Table3Rows(opts)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Table 3: benefit and overhead of Cartesian products",
		"Model", "Config", "Table Num", "Tables in DRAM", "DRAM Rounds",
		"Storage", "Lookup Latency", "(paper)")
	for _, r := range rows {
		cfg := "Without Cartesian"
		if r.Cartesian {
			cfg = "With Cartesian"
		}
		ref := PaperTable3[r.Model][r.Cartesian]
		t.AddRow(r.Model, cfg,
			fmt.Sprint(r.Tables),
			fmt.Sprint(r.TablesInDRAM),
			fmt.Sprint(r.DRAMRounds),
			metrics.FmtF(r.StoragePct, 1)+"%",
			metrics.FmtF(r.LatencyPct, 1)+"%",
			fmt.Sprintf("%d tables, %d DRAM, %d rounds, %.1f%%, %.1f%%",
				ref.Tables, ref.TablesInDRAM, ref.DRAMRounds, ref.StoragePct, ref.LatencyPct))
	}
	t.AddNote("latency %% is relative to the same model without Cartesian products")
	return []*metrics.Table{t}, nil
}
