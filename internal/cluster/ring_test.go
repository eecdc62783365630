package cluster

import (
	"testing"
	"time"

	"microrec/internal/core"
	"microrec/internal/fixedpoint"
	"microrec/internal/model"
)

// TestShardRingTokenDiscipline checks a shard's partial-plane ring: RingDepth
// planes out at most, a take blocks while the ring is empty, release returns
// exactly one token, and releasing a plane the ring did not hand out panics.
func TestShardRingTokenDiscipline(t *testing.T) {
	params, err := model.SmallProduction().Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 16})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Build(params, core.Config{Precision: fixedpoint.Fixed16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	c, err := New(eng, Options{Shards: 1, MaxBatch: 8, RingDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sh := c.shards[0]
	if cap(sh.free) != 2 || len(sh.free) != 2 {
		t.Fatalf("fresh ring depth=%d free=%d, want 2/2", cap(sh.free), len(sh.free))
	}
	a, b := <-sh.free, <-sh.free
	if a == nil || b == nil || a == b {
		t.Fatalf("took planes %p %p", a, b)
	}
	got := make(chan struct{})
	go func() {
		<-sh.free
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("a take returned with no free plane")
	case <-time.After(10 * time.Millisecond):
	}
	sh.release(a)
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("a take did not wake after release")
	}
	sh.release(b)
	// One plane is still out (a, recycled to the goroutine), so this release
	// fills the ring and the next one overfills it.
	sh.release(a)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	sh.release(b)
}

// TestOptionsValidate covers New's contract for the ring and plane sizing.
func TestOptionsValidate(t *testing.T) {
	if _, err := New(nil, Options{Shards: 1}); err == nil {
		t.Error("nil engine: want error")
	}
	for _, bad := range []Options{
		{Shards: 0},
		{Shards: 1, RingDepth: -1},
		{Shards: 1, MaxBatch: -1},
	} {
		if err := bad.withDefaults().Validate(); err == nil {
			t.Errorf("options %+v: want error", bad)
		}
	}
	if o := (Options{Shards: 1}).withDefaults(); o.RingDepth != 2 || o.MaxBatch != 64 {
		t.Errorf("defaults = %+v", o)
	}
}
