package accel

import (
	"testing"

	"microrec/internal/model"
)

func TestHostStreamingHiddenAtPCIeBandwidth(t *testing.T) {
	// Footnote 2: the prototype caches features on the FPGA; a real
	// deployment streams them from the host. At PCIe-class bandwidth the
	// pipelined design hides the transfer entirely.
	spec := model.SmallProduction()
	base := SmallFP16()
	baseRep, err := base.Simulate(spec, 480, 4000)
	if err != nil {
		t.Fatal(err)
	}
	streamed := base
	streamed.HostStreamGBps = 12 // PCIe gen3 x16 effective
	streamRep, err := streamed.Simulate(spec, 480, 4000)
	if err != nil {
		t.Fatal(err)
	}
	lossless := streamRep.SteadyThroughputItemsPerSec() / baseRep.SteadyThroughputItemsPerSec()
	if lossless < 0.999 {
		t.Errorf("PCIe streaming cost %.1f%% throughput — should be hidden by the pipeline",
			100*(1-lossless))
	}
	if streamRep.LatencyNS <= baseRep.LatencyNS {
		t.Error("streaming must add some fill latency")
	}
}

func TestHostStreamingBottleneckAtLowBandwidth(t *testing.T) {
	spec := model.SmallProduction()
	cfg := SmallFP16()
	cfg.HostStreamGBps = 0.05 // pathological 50 MB/s link
	rep, err := cfg.Simulate(spec, 480, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BottleneckStage != "host-stream" {
		t.Errorf("bottleneck = %s, want host-stream at 50 MB/s", rep.BottleneckStage)
	}
}

func TestHostStreamValidation(t *testing.T) {
	cfg := SmallFP16()
	cfg.HostStreamGBps = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative bandwidth: want error")
	}
}
