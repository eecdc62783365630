package main

import (
	"flag"
	"fmt"

	"microrec"
)

// The serving tier scales by replication, and the flags below are registered
// together so every command describes it with one vocabulary: -replicas runs
// N complete server replicas — each a full batching/pipeline composition
// around its own engine — behind a router, and -route picks how requests are
// spread over them.
type topology struct {
	replicas *int
	route    *string

	policy microrec.RoutePolicy
}

// addTopologyFlags registers -replicas and -route on fs with the
// shared help text. Call validate after fs.Parse.
func addTopologyFlags(fs *flag.FlagSet) *topology {
	t := &topology{}
	t.replicas = fs.Int("replicas", 1, "complete server replicas behind the router, each its own engine + batching/pipeline composition (1 = no router); per-replica occupancy appears in /stats.router")
	t.route = fs.String("route", string(microrec.RouteRoundRobin), "routing policy across -replicas: round-robin, least-loaded (live queue depth + pipeline occupancy), or affinity (hot-key rendezvous hashing, so N hot caches act like one N-times-larger one)")
	return t
}

// validate checks the parsed topology flags and resolves the route policy.
func (t *topology) validate(cmd string) error {
	if *t.replicas < 1 {
		return fmt.Errorf("%s: -replicas must be >= 1 (got %d)", cmd, *t.replicas)
	}
	p, err := microrec.ParseRoutePolicy(*t.route)
	if err != nil {
		return fmt.Errorf("%s: -route: %w", cmd, err)
	}
	t.policy = p
	return nil
}

// routed reports whether the command should build the replicated tier.
func (t *topology) routed() bool { return *t.replicas > 1 }

// buildRouter assembles the replicated tier: one engine per replica (same
// spec, seed and options, so the replicas are bit-identical) added to a
// router under the parsed policy. The router owns the engines — Close tears
// everything down. The first replica's engine is also returned for
// read-only introspection (/model, tier snapshots); it stays owned by the
// router.
func (t *topology) buildRouter(spec *microrec.Spec, engOpts microrec.EngineOptions, sopts microrec.ServerOptions) (*microrec.Router, *microrec.Engine, error) {
	rt, err := microrec.NewRouter(microrec.RouterOptions{Policy: t.policy})
	if err != nil {
		return nil, nil, err
	}
	var first *microrec.Engine
	for i := 0; i < *t.replicas; i++ {
		eng, err := microrec.NewEngine(spec, engOpts)
		if err != nil {
			_ = rt.Close()
			return nil, nil, fmt.Errorf("replica %d engine: %w", i+1, err)
		}
		if _, err := rt.Add(eng, sopts, eng.Close); err != nil {
			_ = eng.Close()
			_ = rt.Close()
			return nil, nil, fmt.Errorf("replica %d: %w", i+1, err)
		}
		if first == nil {
			first = eng
		}
	}
	return rt, first, nil
}
