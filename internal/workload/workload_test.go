package workload

import (
	"testing"

	"microrec/internal/embedding"
	"microrec/internal/model"
)

func TestGeneratorDeterminism(t *testing.T) {
	spec := model.SmallProduction()
	a, err := NewGenerator(spec, Uniform, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(spec, Uniform, 42)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 10; n++ {
		qa, qb := a.Next(), b.Next()
		for i := range qa {
			for k := range qa[i] {
				if qa[i][k] != qb[i][k] {
					t.Fatalf("same-seed generators diverged at query %d table %d", n, i)
				}
			}
		}
	}
}

func TestGeneratorBounds(t *testing.T) {
	spec := model.SmallProduction()
	for _, dist := range []Distribution{Uniform, Zipf} {
		g, err := NewGenerator(spec, dist, 7)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 50; n++ {
			q := g.Next()
			if len(q) != len(spec.Tables) {
				t.Fatalf("%v: query covers %d tables", dist, len(q))
			}
			for i, idxs := range q {
				if len(idxs) != spec.Tables[i].Lookups {
					t.Fatalf("%v: table %d has %d lookups", dist, i, len(idxs))
				}
				for _, idx := range idxs {
					if idx < 0 || idx >= spec.Tables[i].Rows {
						t.Fatalf("%v: index %d out of range for table %d (%d rows)",
							dist, idx, i, spec.Tables[i].Rows)
					}
				}
			}
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	spec := model.SmallProduction()
	g, err := NewGenerator(spec, Zipf, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The user_id table (last) has 8M rows; under Zipf most draws must be
	// small indices, under uniform essentially none would be < 1000.
	last := len(spec.Tables) - 1
	small := 0
	const draws = 500
	for n := 0; n < draws; n++ {
		q := g.Next()
		if q[last][0] < 1000 {
			small++
		}
	}
	if small < draws/2 {
		t.Errorf("zipf: only %d/%d draws below 1000 — not skewed", small, draws)
	}
}

func TestBatch(t *testing.T) {
	spec := model.SmallProduction()
	g, err := NewGenerator(spec, Uniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := g.Batch(16)
	if err != nil || len(qs) != 16 {
		t.Fatalf("Batch = %d queries, err %v", len(qs), err)
	}
	if _, err := g.Batch(0); err == nil {
		t.Error("Batch(0): want error")
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := NewGenerator(&model.Spec{Name: "bad"}, Uniform, 1); err == nil {
		t.Error("invalid spec: want error")
	}
	if _, err := NewGenerator(model.SmallProduction(), Distribution(99), 1); err == nil {
		t.Error("unknown distribution: want error")
	}
}

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "uniform" || Zipf.String() != "zipf" {
		t.Error("distribution strings wrong")
	}
	if Distribution(5).String() != "Distribution(5)" {
		t.Error("unknown distribution string wrong")
	}
}

func TestMultiLookupModel(t *testing.T) {
	spec, err := model.DLRMRMC2(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(spec, Uniform, 5)
	if err != nil {
		t.Fatal(err)
	}
	q := g.Next()
	for i := range q {
		if len(q[i]) != 4 {
			t.Errorf("DLRM table %d: %d lookups, want 4", i, len(q[i]))
		}
	}
}

// perTableNext is Next's former layout, one allocation per table.
func perTableNext(g *Generator) embedding.Query {
	q := make(embedding.Query, len(g.spec.Tables))
	for i, t := range g.spec.Tables {
		idxs := make([]int64, t.Lookups)
		for k := range idxs {
			switch g.dist {
			case Zipf:
				idxs[k] = int64(g.zipfs[i].Uint64())
			default:
				idxs[k] = g.rng.Int63n(t.Rows)
			}
		}
		q[i] = idxs
	}
	return q
}

// TestNextMatchesPerTableLayout holds the one-array query to the layout it
// replaced: the same draws in the same order, so the same indices, on a
// single-lookup and a multi-lookup model under both distributions. Each
// table's slice is the window of q[0]'s array at the table's offset
// (embedding.NewQuery's layout).
func TestNextMatchesPerTableLayout(t *testing.T) {
	rmc2, err := model.DLRMRMC2(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*model.Spec{model.LargeProduction(), rmc2} {
		for _, dist := range []Distribution{Uniform, Zipf} {
			g, err := NewGenerator(spec, dist, 9)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewGenerator(spec, dist, 9)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < 50; n++ {
				q, want := g.Next(), perTableNext(ref)
				all, off := q[0][:cap(q[0])], 0
				for i := range want {
					if len(q[i]) != len(want[i]) || &q[i][0] != &all[off] {
						t.Fatalf("%s %v query %d table %d: len %d, not the window at offset %d; want len %d", spec.Name, dist, n, i, len(q[i]), off, len(want[i]))
					}
					off += len(want[i])
					for k := range want[i] {
						if q[i][k] != want[i][k] {
							t.Fatalf("%s %v query %d table %d lookup %d: %d, want %d", spec.Name, dist, n, i, k, q[i][k], want[i][k])
						}
					}
				}
			}
		}
	}
}

// TestNextAllocatesTwice pins Next at two allocations, the table slice and
// the one index array, whatever the table count.
func TestNextAllocatesTwice(t *testing.T) {
	g, err := NewGenerator(model.LargeProduction(), Uniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { g.Next() }); n != 2 {
		t.Errorf("Next allocates %v times, want 2", n)
	}
}

func BenchmarkNextSmall(b *testing.B) {
	g, err := NewGenerator(model.SmallProduction(), Uniform, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
