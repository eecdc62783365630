package router

import (
	"fmt"

	"microrec/internal/embedding"
)

// Policy selects how the router picks a replica for each submitted query.
type Policy string

const (
	// RoundRobin cycles through the active replicas in id order — the
	// oblivious baseline every other policy is compared against.
	RoundRobin Policy = "round-robin"
	// LeastLoaded routes to the replica with the smallest live load score
	// (admission-queue depth + flush-size-weighted in-flight batches; see
	// serving.Server.LoadScore), bounding the occupancy spread between
	// replicas under skewed or bursty arrivals.
	LeastLoaded Policy = "least-loaded"
	// Affinity routes by a hash of the query's embedding keys (rendezvous
	// hashing over the active replicas), so each replica's tiered store
	// specializes on a slice of the key space: N frequency windows of size C
	// behave like one ~N·C window on a skewed workload.
	Affinity Policy = "affinity"
)

// policy indices into the router's per-policy decision scoreboard.
const (
	roundRobinIdx = iota
	leastLoadedIdx
	affinityIdx
	numPolicies
)

var policyNames = [numPolicies]Policy{RoundRobin, LeastLoaded, Affinity}

// Policies lists the supported routing policies in scoreboard order.
func Policies() []Policy { return policyNames[:] }

// ParsePolicy resolves a -route flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case RoundRobin, LeastLoaded, Affinity:
		return Policy(s), nil
	default:
		return "", fmt.Errorf("router: unknown policy %q (have %v)", s, Policies())
	}
}

func (p Policy) index() (int, error) {
	for i, name := range policyNames {
		if p == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("router: unknown policy %q (have %v)", string(p), Policies())
}

// queryHash folds a query's embedding keys — every (table, row-index) pair —
// into one 64-bit affinity key, FNV-1a style over words. Two queries with the
// same lookups always hash alike, so a recurring (hot) query has a stable
// home replica; quality only needs to spread distinct key sets across
// replicas, not resist adversaries.
func queryHash(q embedding.Query) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for t, idxs := range q {
		h = (h ^ uint64(t)) * prime64
		for _, ix := range idxs {
			h = (h ^ uint64(ix)) * prime64
		}
	}
	return h
}

// rendezvousWeight mixes an affinity key with a replica id (splitmix64
// finalizer). Affinity picks the active replica with the maximum weight —
// rendezvous (highest-random-weight) hashing, so adding or draining a replica
// remaps only the keys whose maximum moved (~1/N of the key space), keeping
// the other replicas' caches warm through membership changes.
func rendezvousWeight(h uint64, id int) uint64 {
	x := h ^ (uint64(id)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
