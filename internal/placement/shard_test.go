package placement

import (
	"reflect"
	"testing"

	"microrec/internal/memsim"
	"microrec/internal/model"
)

func planFor(t *testing.T, spec *model.Spec) *Result {
	t.Helper()
	plan, err := Plan(spec, memsim.U280(8), Options{EnableCartesian: true})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestShardTablesPartition checks the structural contract: every physical
// table lands in exactly one shard, no shard is empty, the shard count is
// capped at the table count, and the result is deterministic.
func TestShardTablesPartition(t *testing.T) {
	plan := planFor(t, model.SmallProduction())
	nt := len(plan.Layout.Tables)
	for _, n := range []int{1, 2, 3, 4, 7, nt, nt + 5} {
		shards, err := ShardTables(plan, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		wantShards := n
		if wantShards > nt {
			wantShards = nt
		}
		if len(shards) != wantShards {
			t.Fatalf("n=%d: got %d shards, want %d", n, len(shards), wantShards)
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
		again, err := ShardTables(plan, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shards, again) {
			t.Fatalf("n=%d: non-deterministic partition", n)
		}
	}
}

// TestShardTablesBalance pins the LPT guarantee on per-shard cost sums: no
// shard exceeds the mean load plus one largest table (the classic LPT bound,
// loose form), so the partition is genuinely balanced rather than arbitrary.
func TestShardTablesBalance(t *testing.T) {
	plan := planFor(t, model.SmallProduction())
	const n = 4
	shards, err := ShardTables(plan, n)
	if err != nil {
		t.Fatal(err)
	}
	var total, largest float64
	for ti := range plan.Layout.Tables {
		c, err := plan.TableCostNS(ti)
		if err != nil {
			t.Fatal(err)
		}
		total += c
		if c > largest {
			largest = c
		}
	}
	for si, s := range shards {
		var load float64
		for _, ti := range s {
			c, _ := plan.TableCostNS(ti)
			load += c
		}
		if bound := total/float64(len(shards)) + largest; load > bound+1e-9 {
			t.Fatalf("shard %d load %v exceeds LPT bound %v", si, load, bound)
		}
	}
}

// TestShardTablesErrors covers the argument contract.
func TestShardTablesErrors(t *testing.T) {
	plan := planFor(t, model.SmallProduction())
	if _, err := ShardTables(plan, 0); err == nil {
		t.Fatal("n=0 did not error")
	}
	if _, err := plan.TableCostNS(-1); err == nil {
		t.Fatal("TableCostNS(-1) did not error")
	}
}
