package cluster

import (
	"reflect"
	"testing"

	"microrec/internal/model"
)

// TestShardTablesPartition checks the structural contract: every table lands
// in exactly one shard, no shard is empty, the shard count is capped at the
// table count, and the result is deterministic.
func TestShardTablesPartition(t *testing.T) {
	spec := model.SmallProduction()
	nt := len(spec.Tables)
	for _, n := range []int{1, 2, 3, 4, 7, nt, nt + 5} {
		shards := shardTables(spec, n)
		if want := min(n, nt); len(shards) != want {
			t.Fatalf("n=%d: got %d shards, want %d", n, len(shards), want)
		}
		seen := make(map[int]bool)
		for si, s := range shards {
			if len(s) == 0 {
				t.Fatalf("n=%d: shard %d empty", n, si)
			}
			for _, ti := range s {
				if ti < 0 || ti >= nt {
					t.Fatalf("n=%d: table %d out of range", n, ti)
				}
				if seen[ti] {
					t.Fatalf("n=%d: table %d in two shards", n, ti)
				}
				seen[ti] = true
			}
		}
		if len(seen) != nt {
			t.Fatalf("n=%d: %d of %d tables assigned", n, len(seen), nt)
		}
		if again := shardTables(spec, n); !reflect.DeepEqual(shards, again) {
			t.Fatalf("n=%d: non-deterministic partition", n)
		}
	}
}

// TestShardTablesBalance pins the LPT guarantee on per-shard bytes gathered:
// no shard exceeds the mean load plus one largest table (the classic LPT
// bound, loose form), so the partition is genuinely balanced rather than
// arbitrary.
func TestShardTablesBalance(t *testing.T) {
	spec := model.SmallProduction()
	cost := func(ti int) int { return spec.Tables[ti].Lookups * spec.Tables[ti].Dim }
	var total, largest int
	for ti := range spec.Tables {
		total += cost(ti)
		largest = max(largest, cost(ti))
	}
	shards := shardTables(spec, 4)
	for si, s := range shards {
		var load int
		for _, ti := range s {
			load += cost(ti)
		}
		if bound := total/len(shards) + largest; load > bound {
			t.Fatalf("shard %d load %d exceeds LPT bound %d", si, load, bound)
		}
	}
}
