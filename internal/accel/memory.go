// The hybrid memory system of the paper's FPGA platform (§3.2): 32 HBM
// pseudo-channels, 2 DDR4 channels and a set of on-chip banks, each serving
// embedding-vector reads independently.
//
// Timing model. One off-chip access costs
//
//	latency = pipe + row + bytes*perByte
//
// where pipe is the AXI/controller round trip, row the DRAM row activation
// (random accesses always miss the row buffer, §2.2), and perByte the 32-bit
// AXI transfer rate the paper's appendix fixes. Accesses queued on the same
// channel serialise: a channel holding two tables takes two access rounds
// (§3.3's workload-balance argument). The constants are calibrated against
// the ten measured cells of Table 5 (see DESIGN.md); on-chip banks skip the
// row/pipe cost and run at roughly one third of the DRAM latency (§3.2.2).

package accel

import "fmt"

// Kind enumerates memory resource classes.
type Kind int

const (
	// HBM is a high-bandwidth-memory pseudo-channel (256 MB on a U280).
	HBM Kind = iota
	// DDR is a DDR4 channel (16 GB each on a U280).
	DDR
	// OnChip is a BRAM/URAM bank.
	OnChip
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case HBM:
		return "HBM"
	case DDR:
		return "DDR"
	case OnChip:
		return "OnChip"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Timing holds the per-access cost parameters of a memory kind, in
// nanoseconds.
type Timing struct {
	// PipeNS is the fixed controller/interconnect round-trip latency.
	PipeNS float64
	// RowNS is the row-activation (random access) cost.
	RowNS float64
	// PerByteNS is the per-byte streaming cost over the channel.
	PerByteNS float64
}

// AccessNS returns the latency of one access transferring the given bytes.
func (t Timing) AccessNS(bytes int) float64 {
	if bytes < 0 {
		bytes = 0
	}
	return t.PipeNS + t.RowNS + float64(bytes)*t.PerByteNS
}

// Calibrated default timings (DESIGN.md "Calibration constants").
var (
	// HBMTiming fits Table 5 within 4%: e.g. a 16-byte vector costs
	// 150+164+20.8 = 334.8 ns vs the paper's 334.5 ns.
	HBMTiming = Timing{PipeNS: 150, RowNS: 164, PerByteNS: 1.3}
	// DDRTiming matches HBM: "HBM and DDR show close access latency"
	// (§3.2.2).
	DDRTiming = HBMTiming
	// OnChipTiming is roughly one third of a DRAM access (§3.2.2).
	OnChipTiming = Timing{PipeNS: 0, RowNS: 100, PerByteNS: 0.2}
)

// Bank is one independently addressable memory resource.
type Bank struct {
	Kind     Kind
	Capacity int64 // bytes
	Timing   Timing
}

// System is the set of banks available to the lookup unit.
type System struct {
	Banks []Bank
}

// U280 capacities.
const (
	HBMBankBytes    = 256 << 20 // 8 GB over 32 pseudo-channels
	DDRChannelBytes = 16 << 30  // 32 GB over 2 channels
	OnChipBankBytes = 256 << 10 // per-table BRAM/URAM allocation
)

// U280 returns the paper's evaluation platform: 32 HBM pseudo-channels, 2
// DDR4 channels, and onChipBanks single-table on-chip banks (8 in the small
// accelerator build, 16 in the large one).
func U280(onChipBanks int) System {
	banks := make([]Bank, 0, 34+onChipBanks)
	for i := 0; i < 32; i++ {
		banks = append(banks, Bank{Kind: HBM, Capacity: HBMBankBytes, Timing: HBMTiming})
	}
	for i := 0; i < 2; i++ {
		banks = append(banks, Bank{Kind: DDR, Capacity: DDRChannelBytes, Timing: DDRTiming})
	}
	for i := 0; i < onChipBanks; i++ {
		banks = append(banks, Bank{Kind: OnChip, Capacity: OnChipBankBytes, Timing: OnChipTiming})
	}
	return System{Banks: banks}
}

// OffChipBanks returns the indices of the system's DRAM (HBM+DDR) banks.
func (s System) OffChipBanks() []int {
	var out []int
	for i, b := range s.Banks {
		if b.Kind != OnChip {
			out = append(out, i)
		}
	}
	return out
}

// OnChipBanks returns the indices of the system's on-chip banks.
func (s System) OnChipBanks() []int {
	var out []int
	for i, b := range s.Banks {
		if b.Kind == OnChip {
			out = append(out, i)
		}
	}
	return out
}

// Access describes a group of identical reads one inference issues to a bank.
type Access struct {
	// Bytes per read (the physical table's vector size).
	Bytes int
	// Count of reads per inference (the physical table's lookup count).
	Count int
}

// BankLoad is the per-inference work and storage assigned to one bank.
type BankLoad struct {
	// Accesses issued against this bank per inference.
	Accesses []Access
	// Bytes stored on the bank.
	Bytes int64
}

// Rounds returns the number of serialised accesses per inference.
func (l BankLoad) Rounds() int {
	n := 0
	for _, a := range l.Accesses {
		n += a.Count
	}
	return n
}

// Report summarises the memory system's per-inference behaviour under a load
// assignment.
type Report struct {
	// LatencyNS is the embedding-lookup latency: the slowest bank's total
	// serialised access time (banks operate in parallel).
	LatencyNS float64
	// PerBankNS holds each bank's busy time per inference.
	PerBankNS []float64
	// MaxRounds is the largest per-bank serialised access count — the
	// "DRAM access rounds" of Table 3.
	MaxRounds int
	// MaxOffChipRounds restricts MaxRounds to DRAM banks.
	MaxOffChipRounds int
	// Bottleneck is the index of the slowest bank (-1 when idle).
	Bottleneck int
}

// Evaluate computes the lookup-latency report for a load assignment. loads
// must have one entry per bank (empty loads allowed). Capacity violations are
// errors: the placement algorithm must never overcommit a bank.
func (s System) Evaluate(loads []BankLoad) (Report, error) {
	if len(loads) != len(s.Banks) {
		return Report{}, fmt.Errorf("accel: %d loads for %d banks", len(loads), len(s.Banks))
	}
	r := Report{PerBankNS: make([]float64, len(loads)), Bottleneck: -1}
	for i, load := range loads {
		bank := s.Banks[i]
		if load.Bytes > bank.Capacity {
			return Report{}, fmt.Errorf("accel: bank %d (%v) holds %d bytes, capacity %d",
				i, bank.Kind, load.Bytes, bank.Capacity)
		}
		var busy float64
		rounds := 0
		for _, a := range load.Accesses {
			if a.Count < 0 || a.Bytes < 0 {
				return Report{}, fmt.Errorf("accel: bank %d has negative access spec %+v", i, a)
			}
			busy += float64(a.Count) * bank.Timing.AccessNS(a.Bytes)
			rounds += a.Count
		}
		r.PerBankNS[i] = busy
		if busy > r.LatencyNS {
			r.LatencyNS = busy
			r.Bottleneck = i
		}
		if rounds > r.MaxRounds {
			r.MaxRounds = rounds
		}
		if bank.Kind != OnChip && rounds > r.MaxOffChipRounds {
			r.MaxOffChipRounds = rounds
		}
	}
	return r, nil
}

// RoundsLatencyNS is a convenience for the common uniform case: `rounds`
// serialised accesses of `bytes` each on a bank of the given timing — the
// quantity behind Table 5 ("one/two rounds of HBM lookup").
func RoundsLatencyNS(t Timing, rounds, bytes int) float64 {
	return float64(rounds) * t.AccessNS(bytes)
}
