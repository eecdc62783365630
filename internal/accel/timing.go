package accel

import (
	"fmt"
	"math"

	"microrec/internal/model"
)

// gemmCycles returns the initiation interval, in cycles, of one FC layer's
// GEMM stage (§4.3): each PE computes ceil(out/PEs) output chunks; a chunk
// streams ceil(in/lanes) partial sums through the multiplier array plus the
// add-tree drain overhead.
func gemmCycles(in, out, pes, lanes, overhead int) int {
	chunks := ceilDiv(out, pes)
	perChunk := ceilDiv(in, lanes) + overhead
	return chunks * perChunk
}

// addTreeDepth returns the pipeline depth of a PE's adder tree.
func addTreeDepth(lanes int) int {
	d := 0
	for n := 1; n < lanes; n *= 2 {
		d++
	}
	return d
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// BuildPipeline assembles the accelerator's stage pipeline for a model
// (Figure 6): embedding lookup, then broadcast / GEMM / gather per hidden
// layer, then the output layer and sigmoid. lookupNS is the per-inference
// embedding-lookup latency delivered by the memory system (placement report);
// it forms both the latency and the initiation interval of the lookup stage,
// since a memory channel cannot overlap accesses of consecutive items.
func (c Config) BuildPipeline(spec *model.Spec, lookupNS float64) (*Pipeline, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	dims := spec.LayerDims()
	hidden := dims[:len(dims)-1]
	if len(hidden) != len(c.PEsPerLayer) {
		return nil, fmt.Errorf("accel: config has %d PE layers, model has %d hidden layers",
			len(c.PEsPerLayer), len(hidden))
	}
	cyc := c.CycleNS()
	var stages []Stage
	if c.HostStreamGBps > 0 {
		// Input features: one 8-byte (table, index) pair per lookup plus
		// the dense features. GB/s equals bytes/ns.
		bytes := float64(spec.NumLookups()*8 + spec.DenseDim*model.FloatBytes)
		ns := bytes / c.HostStreamGBps
		stages = append(stages, Stage{
			Name:       "host-stream",
			LatencyNS:  ns,
			IntervalNS: ns,
			FIFODepth:  c.FIFODepth,
		})
	}
	stages = append(stages, Stage{
		Name:       "lookup",
		LatencyNS:  lookupNS,
		IntervalNS: lookupNS,
		FIFODepth:  c.FIFODepth,
	})
	treeNS := float64(addTreeDepth(c.LanesPerPE)) * cyc
	for l, d := range hidden {
		in, out := d[0], d[1]
		bcast := float64(ceilDiv(in, c.BroadcastWidth)+4) * cyc
		stages = append(stages, Stage{
			Name:       fmt.Sprintf("fc%d-broadcast", l+1),
			LatencyNS:  bcast,
			IntervalNS: bcast,
			FIFODepth:  c.FIFODepth,
		})
		ii := float64(gemmCycles(in, out, c.PEsPerLayer[l], c.LanesPerPE, c.ChunkOverheadCycles)) * cyc
		stages = append(stages, Stage{
			Name:       fmt.Sprintf("fc%d-gemm", l+1),
			LatencyNS:  ii + treeNS,
			IntervalNS: ii,
			FIFODepth:  c.FIFODepth,
		})
		gather := float64(ceilDiv(out, c.GatherWidth)+4) * cyc
		stages = append(stages, Stage{
			Name:       fmt.Sprintf("fc%d-gather", l+1),
			LatencyNS:  gather,
			IntervalNS: gather,
			FIFODepth:  c.FIFODepth,
		})
	}
	// Output layer: a single dot product on one PE, then the sigmoid LUT.
	outDim := dims[len(dims)-1]
	outNS := float64(gemmCycles(outDim[0], outDim[1], 1, c.LanesPerPE, c.ChunkOverheadCycles))*cyc + treeNS
	stages = append(stages, Stage{
		Name:       "output",
		LatencyNS:  outNS,
		IntervalNS: outNS,
		FIFODepth:  c.FIFODepth,
	})
	sigmoidNS := 8 * cyc
	stages = append(stages, Stage{
		Name:       "sigmoid",
		LatencyNS:  sigmoidNS,
		IntervalNS: sigmoidNS,
		FIFODepth:  c.FIFODepth,
	})
	return NewPipeline(stages...)
}

// TimingReport summarises the accelerator's modeled performance for a run.
type TimingReport struct {
	// Items processed.
	Items int
	// LatencyNS is the end-to-end single-item latency (pipeline fill) —
	// the paper's 16.3–31.0 µs headline (§5.3).
	LatencyNS float64
	// SteadyIntervalNS is the bottleneck initiation interval.
	SteadyIntervalNS float64
	// MakespanNS covers all items including pipeline fill and drain,
	// which is what Table 2's FPGA batch-latency speedups divide by.
	MakespanNS float64
	// ThroughputItemsPerSec is Items / Makespan.
	ThroughputItemsPerSec float64
	// ThroughputGOPs is the FC-tower operation throughput, the paper's
	// GOP/s metric.
	ThroughputGOPs float64
	// LookupNS is the embedding-lookup stage latency.
	LookupNS float64
	// BottleneckStage names the II-limiting stage.
	BottleneckStage string
}

// Simulate runs `items` through the pipeline and converts the result into a
// timing report.
func (c Config) Simulate(spec *model.Spec, lookupNS float64, items int) (TimingReport, error) {
	p, err := c.BuildPipeline(spec, lookupNS)
	if err != nil {
		return TimingReport{}, err
	}
	res, err := p.Simulate(items)
	if err != nil {
		return TimingReport{}, err
	}
	return report(p, res, spec, lookupNS, items), nil
}

func report(p *Pipeline, res PipelineResult, spec *model.Spec, lookupNS float64, items int) TimingReport {
	_, bottleneck := p.Bottleneck()
	return TimingReport{
		Items:                 items,
		LatencyNS:             p.FillLatencyNS(),
		SteadyIntervalNS:      p.BottleneckIntervalNS(),
		MakespanNS:            res.MakespanNS,
		ThroughputItemsPerSec: res.ThroughputPerSec,
		ThroughputGOPs:        float64(spec.OpsPerItem()) * float64(items) / res.MakespanNS,
		LookupNS:              lookupNS,
		BottleneckStage:       bottleneck,
	}
}

// SteadyThroughputItemsPerSec returns the asymptotic throughput implied by
// the bottleneck interval, without pipeline fill effects.
func (r TimingReport) SteadyThroughputItemsPerSec() float64 {
	if r.SteadyIntervalNS == 0 {
		return math.Inf(1)
	}
	return 1e9 / r.SteadyIntervalNS
}
