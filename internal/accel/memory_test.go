package accel

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if HBM.String() != "HBM" || DDR.String() != "DDR" || OnChip.String() != "OnChip" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind string = %q", Kind(9).String())
	}
}

func TestAccessNS(t *testing.T) {
	tm := Timing{PipeNS: 100, RowNS: 50, PerByteNS: 2}
	if got := tm.AccessNS(10); got != 170 {
		t.Errorf("AccessNS(10) = %v, want 170", got)
	}
	if got := tm.AccessNS(-5); got != 150 {
		t.Errorf("AccessNS(-5) = %v, want 150 (clamped)", got)
	}
}

// TestHBMTimingMatchesTable5 validates the calibration against every
// measured single-round and double-round cell of the paper's Table 5.
func TestHBMTimingMatchesTable5(t *testing.T) {
	cases := []struct {
		name   string
		rounds int
		dim    int
		wantNS float64
	}{
		{"8tab-dim4", 1, 4, 334.5},
		{"8tab-dim8", 1, 8, 353.7},
		{"8tab-dim16", 1, 16, 411.6},
		{"8tab-dim32", 1, 32, 486.3},
		{"8tab-dim64", 1, 64, 648.4},
		{"12tab-dim4", 2, 4, 648.5},
		{"12tab-dim8", 2, 8, 707.4},
		{"12tab-dim16", 2, 16, 817.4},
		{"12tab-dim32", 2, 32, 972.7},
		{"12tab-dim64", 2, 64, 1296.9},
	}
	for _, c := range cases {
		got := RoundsLatencyNS(HBMTiming, c.rounds, c.dim*4)
		if !approxEqual(got, c.wantNS, 0.06) {
			t.Errorf("%s: modeled %.1f ns, paper %.1f ns (>6%% off)", c.name, got, c.wantNS)
		}
	}
}

func TestOnChipIsRoughlyOneThirdOfDRAM(t *testing.T) {
	// §3.2.2: on-chip retrieval takes up to around 1/3 of DDR4/HBM time.
	for _, bytes := range []int{16, 64, 128} {
		on := OnChipTiming.AccessNS(bytes)
		off := HBMTiming.AccessNS(bytes)
		ratio := on / off
		if ratio < 0.2 || ratio > 0.45 {
			t.Errorf("on/off-chip latency ratio at %dB = %.2f, want ~1/3", bytes, ratio)
		}
	}
}

func TestU280Shape(t *testing.T) {
	s := U280(8)
	if len(s.Banks) != 42 {
		t.Fatalf("U280(8) has %d banks, want 42", len(s.Banks))
	}
	if len(s.OffChipBanks()) != 34 {
		t.Errorf("off-chip banks = %d, want 34 (32 HBM + 2 DDR, §3.3)", len(s.OffChipBanks()))
	}
	if len(s.OnChipBanks()) != 8 {
		t.Errorf("on-chip banks = %d, want 8", len(s.OnChipBanks()))
	}
	var hbmBytes int64
	for _, b := range s.Banks {
		if b.Kind == HBM {
			hbmBytes += b.Capacity
		}
	}
	if hbmBytes != 8<<30 {
		t.Errorf("total HBM = %d, want 8 GB", hbmBytes)
	}
}

func TestEvaluate(t *testing.T) {
	s := System{Banks: []Bank{
		{Kind: HBM, Capacity: 1000, Timing: Timing{PipeNS: 10, RowNS: 10, PerByteNS: 1}},
		{Kind: HBM, Capacity: 1000, Timing: Timing{PipeNS: 10, RowNS: 10, PerByteNS: 1}},
	}}
	loads := []BankLoad{
		{Accesses: []Access{{Bytes: 10, Count: 2}}, Bytes: 500}, // 2*(20+10)=60
		{Accesses: []Access{{Bytes: 30, Count: 1}}, Bytes: 100}, // 50
	}
	rep, err := s.Evaluate(loads)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatencyNS != 60 {
		t.Errorf("LatencyNS = %v, want 60", rep.LatencyNS)
	}
	if rep.Bottleneck != 0 {
		t.Errorf("Bottleneck = %d, want 0", rep.Bottleneck)
	}
	if rep.MaxRounds != 2 || rep.MaxOffChipRounds != 2 {
		t.Errorf("rounds = %d/%d, want 2/2", rep.MaxRounds, rep.MaxOffChipRounds)
	}
	if rep.PerBankNS[1] != 50 {
		t.Errorf("PerBankNS[1] = %v, want 50", rep.PerBankNS[1])
	}
}

func TestEvaluateErrors(t *testing.T) {
	s := U280(2)
	if _, err := s.Evaluate(nil); err == nil {
		t.Error("wrong load count: want error")
	}
	loads := make([]BankLoad, len(s.Banks))
	loads[0].Bytes = HBMBankBytes + 1
	if _, err := s.Evaluate(loads); err == nil {
		t.Error("capacity violation: want error")
	}
	loads[0] = BankLoad{Accesses: []Access{{Bytes: -1, Count: 1}}}
	if _, err := s.Evaluate(loads); err == nil {
		t.Error("negative access: want error")
	}
}

func TestOnChipExcludedFromOffChipRounds(t *testing.T) {
	s := System{Banks: []Bank{
		{Kind: HBM, Capacity: 1 << 20, Timing: HBMTiming},
		{Kind: OnChip, Capacity: 1 << 20, Timing: OnChipTiming},
	}}
	loads := []BankLoad{
		{Accesses: []Access{{Bytes: 16, Count: 1}}},
		{Accesses: []Access{{Bytes: 16, Count: 3}}},
	}
	rep, err := s.Evaluate(loads)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxRounds != 3 {
		t.Errorf("MaxRounds = %d, want 3", rep.MaxRounds)
	}
	if rep.MaxOffChipRounds != 1 {
		t.Errorf("MaxOffChipRounds = %d, want 1", rep.MaxOffChipRounds)
	}
}

func TestEmptySystemEvaluate(t *testing.T) {
	s := System{}
	rep, err := s.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatencyNS != 0 || rep.Bottleneck != -1 {
		t.Errorf("empty system report = %+v", rep)
	}
}

// Property: latency is monotone in bytes, rounds, and never below the
// row+pipe floor.
func TestLatencyMonotoneProperty(t *testing.T) {
	prop := func(b1, b2 uint8, c uint8) bool {
		small, big := int(b1), int(b1)+int(b2)
		count := int(c%4) + 1
		lSmall := RoundsLatencyNS(HBMTiming, count, small)
		lBig := RoundsLatencyNS(HBMTiming, count, big)
		lMore := RoundsLatencyNS(HBMTiming, count+1, small)
		floor := float64(count) * (HBMTiming.PipeNS + HBMTiming.RowNS)
		return lBig >= lSmall && lMore > lSmall && lSmall >= floor
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: evaluating a permutation-balanced load never reports a latency
// below any single bank's busy time (max semantics).
func TestEvaluateMaxSemanticsProperty(t *testing.T) {
	s := U280(0)
	prop := func(seed uint8) bool {
		loads := make([]BankLoad, len(s.Banks))
		for i := range loads {
			loads[i] = BankLoad{Accesses: []Access{{Bytes: int(seed%64) + 4, Count: i%3 + 1}}}
		}
		rep, err := s.Evaluate(loads)
		if err != nil {
			return false
		}
		for _, ns := range rep.PerBankNS {
			if ns > rep.LatencyNS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEvaluateU280(b *testing.B) {
	s := U280(8)
	loads := make([]BankLoad, len(s.Banks))
	for i := range loads {
		bytes := int64(1 << 20)
		if s.Banks[i].Kind == OnChip {
			bytes = 64 << 10 // stay inside the 256 KB on-chip banks
		}
		loads[i] = BankLoad{Accesses: []Access{{Bytes: 64, Count: 1 + i%2}}, Bytes: bytes}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(loads); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMergedAccessBeatsTwoAccesses pins §3.3's argument on the calibrated HBM
// timing: embedding vectors are so short that row activation dominates an
// access, so one access to a Cartesian product's concatenated row costs
// little more than one to either source, and nearly half of two separate
// accesses. The saving shrinks as vectors grow long enough to amortise the
// activation.
func TestMergedAccessBeatsTwoAccesses(t *testing.T) {
	prevGain := 2.0
	for _, bytes := range []int{16, 32, 64, 128, 256} {
		t.Run(fmt.Sprintf("%dB", bytes), func(t *testing.T) {
			separate := 2 * HBMTiming.AccessNS(bytes)
			merged := HBMTiming.AccessNS(2 * bytes)
			gain := separate / merged
			if gain <= 1 || gain >= 2 {
				t.Fatalf("merging two %d-byte vectors gains %.3fx, want in (1, 2)", bytes, gain)
			}
			if bytes <= 32 && gain < 1.75 {
				t.Errorf("short %d-byte vectors gain only %.3fx, want almost 2x", bytes, gain)
			}
			if gain >= prevGain {
				t.Errorf("gain %.3fx at %d bytes does not fall below %.3fx at the shorter length", gain, bytes, prevGain)
			}
			prevGain = gain
		})
	}
}
