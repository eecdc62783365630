// The table-combination and memory-allocation search (§3.4): given a
// model's embedding tables and the FPGA's hybrid memory system, decide which
// tables to merge via Cartesian products and which bank each resulting
// physical table lives on, minimising embedding-lookup latency with storage
// as the tie-breaker.
//
// Two searchers are provided: the O(N²) heuristic of Algorithm 1 (the four
// rules of §3.4.2) in Plan, and an exponential brute force (§3.4.1) practical
// only for small instances, used to validate the heuristic's near-optimality
// (BruteForce).

package accel

import (
	"fmt"
	"sort"

	"microrec/internal/model"
)

// Allocator selects the DRAM bank-assignment strategy.
type Allocator int

const (
	// RoundRobin balances the number of tables per bank, breaking ties in
	// rotating bank order without regard to access cost — the behaviour
	// the paper's measured per-round latencies imply (its channels mix
	// large and small vectors). This is the default, paper-faithful
	// strategy.
	RoundRobin Allocator = iota
	// LPT is a longest-processing-time greedy that balances per-bank
	// access cost instead of table count. It strictly improves on
	// RoundRobin and is provided as an ablation (see EXPERIMENTS.md).
	LPT
)

// String implements fmt.Stringer.
func (a Allocator) String() string {
	switch a {
	case RoundRobin:
		return "round-robin"
	case LPT:
		return "lpt"
	default:
		return fmt.Sprintf("Allocator(%d)", int(a))
	}
}

// Options configures the search.
type Options struct {
	// EnableCartesian allows table merging; disabled, the search only
	// allocates (the paper's "HBM only" configuration, Table 4).
	EnableCartesian bool
	// MaxCandidates bounds the number of smallest tables considered for
	// Cartesian products (the sweep variable n of Algorithm 1). Zero
	// means all tables.
	MaxCandidates int
	// MaxTablesPerOnChipBank bounds co-location on one on-chip bank.
	// The default 1 models the paper's artifact, which instantiates an
	// independent lookup port per cached table; higher values are
	// admitted subject to heuristic rule 4's latency constraint.
	MaxTablesPerOnChipBank int
	// Allocator selects the DRAM assignment strategy (default RoundRobin).
	Allocator Allocator
	// ProductArity is the number of tables merged per Cartesian product.
	// The default 2 follows heuristic rule 2; 3 is admitted as the rule-2
	// ablation (triples consume small tables too fast and inflate
	// storage, §3.4.2).
	ProductArity int
}

func (o Options) withDefaults() Options {
	if o.MaxTablesPerOnChipBank == 0 {
		o.MaxTablesPerOnChipBank = 1
	}
	if o.ProductArity == 0 {
		o.ProductArity = 2
	}
	return o
}

// Result is a complete placement: the merged layout, the bank assignment and
// the evaluated memory behaviour.
type Result struct {
	// Layout holds the physical tables after Cartesian merging.
	Layout *Layout
	// BankOf maps each physical table index to a bank index in System.
	BankOf []int
	// System is the memory system the plan targets.
	System System
	// Report is the evaluated per-inference lookup behaviour.
	Report Report
	// CandidateCount is the number of tables that were Cartesian
	// candidates (the chosen n).
	CandidateCount int
}

// OnChipTables counts physical tables placed on on-chip banks.
func (r *Result) OnChipTables() int {
	n := 0
	for _, b := range r.BankOf {
		if r.System.Banks[b].Kind == OnChip {
			n++
		}
	}
	return n
}

// DRAMTables counts physical tables placed on HBM or DDR banks.
func (r *Result) DRAMTables() int { return len(r.BankOf) - r.OnChipTables() }

// Loads converts the assignment into per-bank loads for Evaluate.
func (r *Result) Loads() []BankLoad {
	loads := make([]BankLoad, len(r.System.Banks))
	for ti, bi := range r.BankOf {
		t := r.Layout.Tables[ti]
		loads[bi].Accesses = append(loads[bi].Accesses, Access{
			Bytes: t.VectorBytes(),
			Count: t.Lookups(),
		})
		loads[bi].Bytes += t.Bytes()
	}
	return loads
}

// StorageBytes returns the plan's total logical storage (including product
// overhead).
func (r *Result) StorageBytes() int64 { return r.Layout.TotalBytes() }

// Plan runs the heuristic search of Algorithm 1.
func Plan(spec *model.Spec, sys System, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(sys.OffChipBanks()) == 0 {
		return nil, fmt.Errorf("accel: system has no off-chip banks")
	}
	opts = opts.withDefaults()

	maxN := len(spec.Tables)
	if !opts.EnableCartesian {
		maxN = 0
	} else if opts.MaxCandidates > 0 && opts.MaxCandidates < maxN {
		maxN = opts.MaxCandidates
	}

	if opts.ProductArity < 2 || opts.ProductArity > 4 {
		return nil, fmt.Errorf("accel: product arity %d (want 2-4)", opts.ProductArity)
	}
	var best *Result
	for n := 0; n <= maxN; n++ {
		groups, ok := candidateGroups(spec, n, sys, opts.ProductArity)
		if !ok {
			continue
		}
		layout, err := Apply(spec, groups)
		if err != nil {
			return nil, err
		}
		res, err := allocate(layout, sys, opts)
		if err != nil {
			// Infeasible allocation for this n (capacity); skip.
			continue
		}
		res.CandidateCount = n
		if better(res, best) {
			best = res
		}
	}
	if best == nil {
		return nil, fmt.Errorf("accel: no feasible plan for model %q", spec.Name)
	}
	return best, nil
}

// better implements the paper's objective: minimise lookup latency, break
// ties by storage.
func better(a, b *Result) bool {
	if b == nil {
		return true
	}
	const eps = 1e-9
	switch {
	case a.Report.LatencyNS < b.Report.LatencyNS-eps:
		return true
	case a.Report.LatencyNS > b.Report.LatencyNS+eps:
		return false
	default:
		return a.StorageBytes() < b.StorageBytes()
	}
}

// candidateGroups applies heuristic rules 1–3: select the n smallest tables
// (rule 1), form fixed-arity groups (rule 2 fixes arity at pairs; higher
// arities exist for the rule-2 ablation), combining the smallest candidates
// with the largest (rule 3). Returns false if any product would not fit the
// largest off-chip bank, making the configuration infeasible.
func candidateGroups(spec *model.Spec, n int, sys System, arity int) ([][]int, bool) {
	if n < arity {
		return nil, true // no merging
	}
	idx := make([]int, len(spec.Tables))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ta, tb := spec.Tables[idx[a]], spec.Tables[idx[b]]
		if ta.Bytes() != tb.Bytes() {
			return ta.Bytes() < tb.Bytes()
		}
		return idx[a] < idx[b]
	})
	cands := idx[:n]
	var maxBank int64
	for _, bi := range sys.OffChipBanks() {
		if c := sys.Banks[bi].Capacity; c > maxBank {
			maxBank = c
		}
	}
	// Split candidates into `arity` size-sorted segments and take one
	// element from each, walking later segments from the large end — for
	// arity 2 this is exactly rule 3's smallest-with-largest pairing.
	groupCount := n / arity
	var groups [][]int
	for g := 0; g < groupCount; g++ {
		members := make([]model.TableSpec, 0, arity)
		ids := make([]int, 0, arity)
		for seg := 0; seg < arity; seg++ {
			var pos int
			if seg%2 == 0 {
				pos = seg*groupCount + g // from the small end
			} else {
				pos = (seg+1)*groupCount - 1 - g // from the large end
			}
			t := spec.Tables[cands[pos]]
			members = append(members, t)
			ids = append(ids, t.ID)
		}
		for _, m := range members[1:] {
			if m.Lookups != members[0].Lookups {
				return nil, false
			}
		}
		pt, err := Merge(members...)
		if err != nil || pt.Bytes() > maxBank {
			return nil, false
		}
		groups = append(groups, ids)
	}
	return groups, true
}

// allocate implements heuristic rule 4 plus balanced DRAM allocation: cache
// the smallest physical tables on chip (capacity- and latency-constrained),
// then spread the rest over HBM/DDR banks minimising the slowest bank
// (longest-processing-time greedy).
func allocate(layout *Layout, sys System, opts Options) (*Result, error) {
	nt := len(layout.Tables)
	bankOf := make([]int, nt)
	for i := range bankOf {
		bankOf[i] = -1
	}
	order := make([]int, nt)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return layout.Tables[order[a]].Bytes() < layout.Tables[order[b]].Bytes()
	})

	// Rule 4: on-chip caching of the smallest tables, subject to capacity
	// and to the latency constraint: an on-chip bank must never become
	// slower than the (balanced) off-chip lookup it displaces. The
	// off-chip estimate shrinks as tables move on chip, so it is
	// recomputed per placement.
	type onBank struct {
		free   int64
		busyNS float64
		tables int
	}
	onIdx := sys.OnChipBanks()
	offCount := len(sys.OffChipBanks())
	onBanks := make([]onBank, len(onIdx))
	for i, bi := range onIdx {
		onBanks[i] = onBank{free: sys.Banks[bi].Capacity}
	}
	var remainingNS float64 // off-chip cost of tables not yet cached
	for _, t := range layout.Tables {
		remainingNS += tableCostNS(t, HBMTiming)
	}
	for _, ti := range order {
		t := layout.Tables[ti]
		offCost := tableCostNS(t, HBMTiming)
		placed := false
		for i := range onBanks {
			ob := &onBanks[i]
			if ob.tables >= opts.MaxTablesPerOnChipBank {
				continue
			}
			if t.Bytes() > ob.free {
				continue
			}
			cost := float64(t.Lookups()) * sys.Banks[onIdx[i]].Timing.AccessNS(t.VectorBytes())
			// Rule 4's latency constraint against the balanced off-chip
			// estimate after this table would leave DRAM.
			if ob.busyNS+cost > (remainingNS-offCost)/float64(offCount) {
				continue
			}
			ob.free -= t.Bytes()
			ob.busyNS += cost
			ob.tables++
			bankOf[ti] = onIdx[i]
			remainingNS -= offCost
			placed = true
			break
		}
		if !placed {
			// Tables are visited smallest-first; once one fails, larger
			// ones will too (capacity is the binding constraint).
			break
		}
	}

	// DRAM allocation over HBM+DDR banks.
	offIdx := sys.OffChipBanks()
	type offBank struct {
		free   int64
		busyNS float64
		count  int
	}
	offBanks := make([]offBank, len(offIdx))
	for i, bi := range offIdx {
		offBanks[i] = offBank{free: sys.Banks[bi].Capacity}
	}
	var rest []int
	for _, ti := range order {
		if bankOf[ti] < 0 {
			rest = append(rest, ti)
		}
	}
	// Largest first: by storage bytes for RoundRobin (the paper sorts by
	// table size), by per-inference cost for LPT.
	sort.SliceStable(rest, func(a, b int) bool {
		ta, tb := layout.Tables[rest[a]], layout.Tables[rest[b]]
		if opts.Allocator == LPT {
			return tableCostNS(ta, HBMTiming) > tableCostNS(tb, HBMTiming)
		}
		return ta.Bytes() > tb.Bytes()
	})
	rrPtr := 0
	for _, ti := range rest {
		t := layout.Tables[ti]
		bestBank := -1
		for k := 0; k < len(offBanks); k++ {
			// Scan in rotating order so RoundRobin ties spread out.
			i := (rrPtr + k) % len(offBanks)
			if t.Bytes() > offBanks[i].free {
				continue
			}
			if bestBank < 0 {
				bestBank = i
				continue
			}
			a, b := offBanks[i], offBanks[bestBank]
			switch opts.Allocator {
			case LPT:
				if less2(a.busyNS, a.free, b.busyNS, b.free) {
					bestBank = i
				}
			default: // RoundRobin: balance counts, first feasible wins ties
				if a.count < b.count {
					bestBank = i
				}
			}
		}
		if bestBank < 0 {
			return nil, fmt.Errorf("accel: table %q (%d bytes) fits no off-chip bank", t.Name(), t.Bytes())
		}
		cost := float64(t.Lookups()) * sys.Banks[offIdx[bestBank]].Timing.AccessNS(t.VectorBytes())
		offBanks[bestBank].busyNS += cost
		offBanks[bestBank].free -= t.Bytes()
		offBanks[bestBank].count++
		bankOf[ti] = offIdx[bestBank]
		rrPtr = (bestBank + 1) % len(offBanks)
	}

	res := &Result{Layout: layout, BankOf: bankOf, System: sys}
	rep, err := sys.Evaluate(res.Loads())
	if err != nil {
		return nil, err
	}
	res.Report = rep
	return res, nil
}

// less2 orders banks by (busy time, then most free capacity).
func less2(busyA float64, freeA int64, busyB float64, freeB int64) bool {
	if busyA != busyB {
		return busyA < busyB
	}
	return freeA > freeB
}

func tableCostNS(t PhysicalTable, tm Timing) float64 {
	return float64(t.Lookups()) * tm.AccessNS(t.VectorBytes())
}

// BruteForceLimits bounds the exponential search of §3.4.1 so it stays
// tractable; beyond them BruteForce refuses to run.
type BruteForceLimits struct {
	// MaxTables bounds the model size (pairings grow super-exponentially).
	MaxTables int
	// MaxExhaustiveTables bounds exhaustive bank assignment; larger
	// instances fall back to the greedy allocator for the allocation step
	// while still enumerating all pairings.
	MaxExhaustiveTables int
}

// DefaultBruteForceLimits keeps the search under a second on small instances.
var DefaultBruteForceLimits = BruteForceLimits{MaxTables: 10, MaxExhaustiveTables: 6}

// BruteForce exhaustively searches all pairings of tables into Cartesian
// products (including "no product") and, for small instances, all bank
// assignments, returning the optimal plan under the latency-then-storage
// objective. It exists to validate the heuristic (§3.4.1 explains why it is
// infeasible at production scale).
func BruteForce(spec *model.Spec, sys System, opts Options, limits BruteForceLimits) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if limits.MaxTables == 0 {
		limits = DefaultBruteForceLimits
	}
	if len(spec.Tables) > limits.MaxTables {
		return nil, fmt.Errorf("accel: brute force limited to %d tables, model has %d",
			limits.MaxTables, len(spec.Tables))
	}
	opts = opts.withDefaults()

	var best *Result
	consider := func(groups [][]int) error {
		layout, err := Apply(spec, groups)
		if err != nil {
			return err
		}
		var res *Result
		if len(layout.Tables) <= limits.MaxExhaustiveTables {
			res = exhaustiveAllocate(layout, sys)
		}
		if res == nil {
			r, err := allocate(layout, sys, opts)
			if err != nil {
				return nil // infeasible under greedy; skip
			}
			res = r
		}
		merged := 0
		for _, g := range groups {
			merged += len(g)
		}
		res.CandidateCount = merged
		if better(res, best) {
			best = res
		}
		return nil
	}

	ids := make([]int, len(spec.Tables))
	for i, t := range spec.Tables {
		ids[i] = t.ID
	}
	if !opts.EnableCartesian {
		if err := consider(nil); err != nil {
			return nil, err
		}
	} else if err := forEachPairing(ids, nil, consider); err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("accel: brute force found no feasible plan for %q", spec.Name)
	}
	return best, nil
}

// forEachPairing enumerates all partitions of ids into singletons and pairs
// (involutions), invoking fn with the pair groups of each.
func forEachPairing(ids []int, groups [][]int, fn func([][]int) error) error {
	if len(ids) == 0 {
		return fn(groups)
	}
	first, rest := ids[0], ids[1:]
	// first stays single.
	if err := forEachPairing(rest, groups, fn); err != nil {
		return err
	}
	// first pairs with each remaining id.
	for i := range rest {
		next := make([]int, 0, len(rest)-1)
		next = append(next, rest[:i]...)
		next = append(next, rest[i+1:]...)
		if err := forEachPairing(next, append(groups, []int{first, rest[i]}), fn); err != nil {
			return err
		}
	}
	return nil
}

// exhaustiveAllocate tries every bank assignment and returns the best
// feasible one, or nil if none exists (or the instance is too large).
func exhaustiveAllocate(layout *Layout, sys System) *Result {
	nt := len(layout.Tables)
	nb := len(sys.Banks)
	if nb == 0 || nt == 0 {
		return nil
	}
	// nb^nt assignments; callers bound nt.
	total := 1
	for i := 0; i < nt; i++ {
		total *= nb
		if total > 1<<20 {
			return nil
		}
	}
	var best *Result
	assign := make([]int, nt)
	for code := 0; code < total; code++ {
		c := code
		for i := 0; i < nt; i++ {
			assign[i] = c % nb
			c /= nb
		}
		res := &Result{
			Layout: layout,
			BankOf: append([]int(nil), assign...),
			System: sys,
		}
		rep, err := sys.Evaluate(res.Loads())
		if err != nil {
			continue // capacity violation
		}
		res.Report = rep
		if better(res, best) {
			best = res
		}
	}
	return best
}
