package experiments

import (
	"fmt"
	"math"

	"microrec/internal/accel"
	"microrec/internal/metrics"
	"microrec/internal/model"
)

// Table5Cell is one modeled DLRM-RMC2 lookup configuration.
type Table5Cell struct {
	Tables   int
	Dim      int
	Rounds   int
	LookupNS float64
	Speedup  float64
}

// Table5Cells computes the Facebook-benchmark study (§5.4.2): DLRM-RMC2 with
// 8 or 12 tables, each looked up 4 times, across embedding dims 4–64.
//
// Following the paper's setup, each table fits one HBM bank and the 32–48
// lookups are spread over the 32 HBM pseudo-channels (tables are replicated
// across banks so one retrieval round covers 32 parallel accesses); no
// Cartesian products are applied. The lookup latency is therefore
// ceil(lookups/32) serialised access rounds.
func Table5Cells(opts Options) ([]Table5Cell, error) {
	var out []Table5Cell
	const hbmChannels = 32
	for _, numTables := range []int{8, 12} {
		spec, err := model.DLRMRMC2(numTables, 4)
		if err != nil {
			return nil, err
		}
		lookups := spec.NumLookups()
		rounds := (lookups + hbmChannels - 1) / hbmChannels
		for _, dim := range PaperTable5Dims {
			ns := accel.RoundsLatencyNS(accel.HBMTiming, rounds, dim*model.FloatBytes)
			out = append(out, Table5Cell{
				Tables:   numTables,
				Dim:      dim,
				Rounds:   rounds,
				LookupNS: ns,
				Speedup:  metrics.Speedup(FacebookRMC2EmbeddingNSPerItem, ns),
			})
		}
	}
	return out, nil
}

// RunTable5 renders the DLRM-RMC2 comparison next to the paper's cells.
func RunTable5(opts Options) ([]*metrics.Table, error) {
	cells, err := Table5Cells(opts)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Table 5: embedding lookup vs Facebook DLRM-RMC2 baseline",
		"Tables", "Dim", "Rounds", "Lookup (ns)", "Speedup", "Paper (ns)", "Paper speedup", "Rel err")
	var worst float64
	for _, c := range cells {
		ref := PaperTable5[c.Tables][c.Dim]
		relErr := metrics.RelErr(c.LookupNS, ref.LookupNS)
		worst = math.Max(worst, relErr)
		t.AddRow(
			fmt.Sprint(c.Tables),
			fmt.Sprint(c.Dim),
			fmt.Sprint(c.Rounds),
			metrics.FmtF(c.LookupNS, 1),
			metrics.FmtSpeedup(c.Speedup),
			metrics.FmtF(ref.LookupNS, 1),
			metrics.FmtSpeedup(ref.Speedup),
			metrics.FmtPct(relErr))
	}
	t.AddNote("baseline: %.1f µs/item embedding time (2-socket Broadwell, batch 256)",
		FacebookRMC2EmbeddingNSPerItem/1e3)
	t.AddNote("worst relative error vs paper: %s", metrics.FmtPct(worst))
	return []*metrics.Table{t}, nil
}
