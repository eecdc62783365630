// Package workload generates deterministic synthetic query streams for the
// recommendation models: per-table sparse indices drawn from uniform or
// Zipfian distributions (production embedding accesses are heavily skewed —
// Ke et al. 2020's caching argument — while uniform is the adversarial case
// for any cache).
package workload

import (
	"fmt"
	"math/rand"

	"microrec/internal/embedding"
	"microrec/internal/model"
)

// Distribution selects how sparse indices are drawn.
type Distribution int

const (
	// Uniform draws indices uniformly over each table's logical rows.
	Uniform Distribution = iota
	// Zipf draws indices with a Zipfian popularity skew (s=1.2), hitting
	// a small set of hot rows most of the time.
	Zipf
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Generator produces query streams for one model.
type Generator struct {
	spec  *model.Spec
	rng   *rand.Rand
	dist  Distribution
	zipfs []*rand.Zipf
}

// NewGenerator builds a deterministic generator.
func NewGenerator(spec *model.Spec, dist Distribution, seed int64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch dist {
	case Uniform, Zipf:
	default:
		return nil, fmt.Errorf("workload: unknown distribution %d", int(dist))
	}
	g := &Generator{spec: spec, rng: rand.New(rand.NewSource(seed)), dist: dist}
	if dist == Zipf {
		g.zipfs = make([]*rand.Zipf, len(spec.Tables))
		for i, t := range spec.Tables {
			// rand.Zipf draws in [0, imax]; s=1.2, v=1 gives the classic
			// hot-head skew.
			g.zipfs[i] = rand.NewZipf(g.rng, 1.2, 1, uint64(t.Rows-1))
		}
	}
	return g, nil
}

// Next produces one query, laid out by embedding.NewQuery.
func (g *Generator) Next() embedding.Query {
	q := embedding.NewQuery(g.spec)
	for i, t := range g.spec.Tables {
		idxs := q[i]
		for k := range idxs {
			switch g.dist {
			case Zipf:
				idxs[k] = int64(g.zipfs[i].Uint64())
			default:
				idxs[k] = g.rng.Int63n(t.Rows)
			}
		}
	}
	return q
}

// Batch produces n queries.
func (g *Generator) Batch(n int) ([]embedding.Query, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: batch size %d", n)
	}
	qs := make([]embedding.Query, n)
	for i := range qs {
		qs[i] = g.Next()
	}
	return qs, nil
}
