package experiments

import (
	"fmt"

	"microrec/internal/accel"
	"microrec/internal/metrics"
	"microrec/internal/model"
)

// Table4Result holds the embedding-layer comparison for one model.
type Table4Result struct {
	Model string
	// CPUms is the baseline embedding-layer latency per batch size.
	CPUms map[int]float64
	// HBMNS is the FPGA lookup latency without Cartesian products.
	HBMNS float64
	// CartesianNS is the FPGA lookup latency with Cartesian products.
	CartesianNS float64
	// Speedup[config][batch] is per-item CPU latency / FPGA latency.
	Speedup map[string]map[int]float64
}

// Table4Results computes the embedding-layer study for both production
// models. The speedup convention follows the paper: CPU per-item latency
// (batch latency / batch size) divided by the FPGA's per-item lookup latency.
func Table4Results(opts Options) ([]Table4Result, error) {
	opts = opts.withDefaults()
	var out []Table4Result
	for _, target := range []struct {
		spec  *model.Spec
		banks int
		cpum  CPUModel
	}{
		{model.SmallProduction(), accel.SmallFP16().OnChipBanks, SmallCPU()},
		{model.LargeProduction(), accel.LargeFP16().OnChipBanks, LargeCPU()},
	} {
		res := Table4Result{
			Model:   target.spec.Name,
			CPUms:   map[int]float64{},
			Speedup: map[string]map[int]float64{"hbm": {}, "hbm+cartesian": {}},
		}
		for _, b := range PaperBatch {
			res.CPUms[b] = target.cpum.EmbeddingMS(b)
		}
		for _, cart := range []bool{false, true} {
			plan, err := planFor(target.spec, target.banks, cart, opts.Allocator)
			if err != nil {
				return nil, err
			}
			key := "hbm"
			if cart {
				key = "hbm+cartesian"
				res.CartesianNS = plan.Report.LatencyNS
			} else {
				res.HBMNS = plan.Report.LatencyNS
			}
			for _, b := range PaperBatch {
				perItemNS := res.CPUms[b] * 1e6 / float64(b)
				res.Speedup[key][b] = metrics.Speedup(perItemNS, plan.Report.LatencyNS)
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// RunTable4 renders the embedding-layer study.
func RunTable4(opts Options) ([]*metrics.Table, error) {
	results, err := Table4Results(opts)
	if err != nil {
		return nil, err
	}
	var tables []*metrics.Table
	for _, r := range results {
		t := metrics.NewTable(
			fmt.Sprintf("Table 4 (%s): embedding layer performance", r.Model),
			"Metric", "B=1", "B=64", "B=256", "B=512", "B=1024", "B=2048",
			"FPGA: HBM", "FPGA: HBM+Cartesian")
		lat := []string{"Latency (ms)"}
		for _, b := range PaperBatch {
			lat = append(lat, metrics.FmtF(r.CPUms[b], 2))
		}
		lat = append(lat,
			fmt.Sprintf("%.2E", r.HBMNS/1e6),
			fmt.Sprintf("%.2E", r.CartesianNS/1e6))
		t.AddRow(lat...)
		for _, key := range []string{"hbm", "hbm+cartesian"} {
			row := []string{"Speedup: " + key}
			for _, b := range PaperBatch {
				row = append(row, metrics.FmtSpeedup(r.Speedup[key][b]))
			}
			t.AddRow(row...)
		}
		ref := PaperTable4FPGA[r.Model]
		t.AddNote("paper lookup latency: HBM %.0f ns, HBM+Cartesian %.0f ns; "+
			"paper speedup at B=2048: %.2fx / %.2fx",
			ref["hbm"], ref["hbm+cartesian"],
			PaperTable4Speedup[r.Model]["hbm"][2048],
			PaperTable4Speedup[r.Model]["hbm+cartesian"][2048])
		tables = append(tables, t)
	}
	return tables, nil
}
