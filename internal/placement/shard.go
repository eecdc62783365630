package placement

import (
	"fmt"
	"sort"
)

// This file extends a placement plan one level up: given the plan's physical
// tables, partition them across N serving shards so each shard's modeled
// per-inference lookup cost is balanced — the same longest-processing-time
// discipline the LPT allocator applies to memory banks, applied to engine
// replicas. The cluster tier gathers each shard's tables in parallel, so the
// tier's lookup latency is the slowest shard's, exactly as the plan's lookup
// latency is the slowest bank's.

// TableCostNS returns the modeled per-inference access cost of one physical
// table on its assigned bank: lookups x the bank's per-access latency at the
// table's vector size. This is the weight ShardTables balances.
func (r *Result) TableCostNS(ti int) (float64, error) {
	if ti < 0 || ti >= len(r.Layout.Tables) {
		return 0, fmt.Errorf("placement: physical table %d out of range (plan has %d)", ti, len(r.Layout.Tables))
	}
	t := r.Layout.Tables[ti]
	bank := r.System.Banks[r.BankOf[ti]]
	return float64(t.Lookups()) * bank.Timing.AccessNS(t.VectorBytes()), nil
}

// ShardTables partitions the plan's physical tables into at most n shards,
// balancing the per-shard sum of TableCostNS with a longest-processing-time
// greedy (largest cost first onto the least-loaded shard, deterministic
// tie-breaks). Every returned shard is non-empty, so with fewer tables than
// requested shards the partition has len(Layout.Tables) shards. n == 1
// returns the identity partition.
func ShardTables(r *Result, n int) ([][]int, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("placement: shard count %d (want >= 1)", n)
	}
	nt := len(r.Layout.Tables)
	if n > nt {
		n = nt
	}
	order := make([]int, nt)
	for i := range order {
		order[i] = i
	}
	costs := make([]float64, nt)
	for ti := range costs {
		c, err := r.TableCostNS(ti)
		if err != nil {
			return nil, err
		}
		costs[ti] = c
	}
	sort.SliceStable(order, func(a, b int) bool {
		if costs[order[a]] != costs[order[b]] {
			return costs[order[a]] > costs[order[b]]
		}
		return order[a] < order[b]
	})
	shards := make([][]int, n)
	load := make([]float64, n)
	for _, ti := range order {
		best := 0
		for i := 1; i < n; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		shards[best] = append(shards[best], ti)
		load[best] += costs[ti]
	}
	// Deterministic table order within each shard (the greedy appended in
	// cost order); callers iterate spans and gather loops over these.
	for _, s := range shards {
		sort.Ints(s)
	}
	return shards, nil
}
