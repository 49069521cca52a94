package faults

import (
	"fastnet/internal/graph"
	"fastnet/internal/runner"
	"fastnet/internal/sim"
)

// SoakSeeds runs one independent soak per seed over the shared read-only
// graph, fanned across the given worker count (0 = one per CPU, <=1 =
// serial), and returns the results in seed order. Each soak is a pure
// function of (g, cfg, seed), so the result slice — and every Line() it
// renders — is byte-identical regardless of worker count. Campaign runs
// are quiet: cfg.Verbose is dropped because interleaved per-epoch progress
// from concurrent soaks would be garbled anyway. opts reach every soak as in
// Soak.
func SoakSeeds(g *graph.Graph, cfg Config, seeds []int64, workers int, opts ...sim.Option) ([]*Result, error) {
	cfg.Verbose = nil
	return runner.Map(workers, seeds, func(seed int64) (*Result, error) {
		c := cfg
		c.Seed = seed
		return Soak(g, c, opts...)
	})
}
