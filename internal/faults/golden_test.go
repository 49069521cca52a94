package faults_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fastnet/internal/faults"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden soak lines from the current implementation")

// goldenSoaks pin full soak result lines (the byte-identical repro target)
// for a small matrix of configs: plain churn, churn with elections and
// leader crashes, a lossy fabric with the reliable-delivery ledger, and one
// config per remaining dimension — reordering (I7), gray slowdowns and
// stalls (I8), loss bursts, the open-loop load plane (I9) and the sharded
// scheduler.
// Each entry runs its soak with the given default sim options.
func goldenSoaks() map[string]func(...sim.Option) (string, error) {
	run := func(cfg faults.Config) func(...sim.Option) (string, error) {
		return func(opts ...sim.Option) (string, error) {
			g := graph.GNP(20, 0.3, 2)
			res, err := faults.Soak(g, cfg, opts...)
			if err != nil {
				return "", err
			}
			if !res.OK() {
				return "", fmt.Errorf("unexpected violations: %v", res.Violations)
			}
			return res.Line(), nil
		}
	}
	return map[string]func(...sim.Option) (string, error){
		"churn-flood": run(faults.Config{
			Seed: 7, Epochs: 4, Mode: topology.ModeFlood,
			Flaps: 2, Crashes: 1, Downtime: 2, NoElection: true,
		}),
		"churn-elect": run(faults.Config{
			Seed: 3, Epochs: 4, Flaps: 1, Crashes: 1, LeaderCrash: 0.5, Calls: 2,
		}),
		"lossy-reliable": run(faults.Config{
			Seed: 5, Epochs: 3, Mode: topology.ModeFlood, Flaps: 1, NoElection: true,
			Loss: 0.1, Dup: 0.05, Corrupt: 0.02, Jitter: 0.05, Reliable: 8,
		}),
		"reorder": run(faults.Config{
			Seed: 4, Epochs: 3, Flaps: 1, Crashes: 1, Reorder: 0.2, ReorderWindow: 12,
		}),
		"gray": run(faults.Config{
			Seed: 6, Epochs: 3, Flaps: 1, Crashes: 1, Reliable: 4,
			Slow: 0.2, SlowFactor: 3, Stall: 1, StallTicks: 5,
		}),
		"burst": run(faults.Config{
			Seed: 8, Epochs: 4, Mode: topology.ModeFlood, Flaps: 1, NoElection: true,
			Loss: 0.1, Jitter: 0.1, Reliable: 4, BurstEvery: 2,
		}),
		"open-loop": run(faults.Config{
			Seed: 3, Epochs: 3, Calls: 2000,
			Rate: 0.2, Holding: 200, ZipfS: 1.1, NCUCap: 64, LinkCap: 0.5, Loss: 0.02,
		}),
		"shards-2": run(faults.Config{
			Seed: 5, Epochs: 3, Flaps: 1, Crashes: 1, Shards: 2, Loss: 0.02, Reliable: 2,
		}),
	}
}

// TestGoldenSoakLines locks the soak driver's repro contract: for pinned
// seeds the one-line result summary is a byte-identical function of the
// config on the discrete-event runtime; a perf refactor must not move it.
// The lines were re-pinned once, when cut-through switching intentionally
// changed same-instant dispatch order (only "lossy-reliable" actually moved
// — the churn configs' lines were insensitive to the interleave);
// cutthrough_test.go holds the fused-vs-unfused equivalence evidence that
// gated the re-pin, and docs/PERF.md the argument.
func TestGoldenSoakLines(t *testing.T) {
	path := filepath.Join("testdata", "golden_soak_lines.json")
	golden := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
	} else if !*updateGolden {
		t.Fatalf("missing %s (run with -update-golden to create)", path)
	}
	got := map[string]string{}
	for name, run := range goldenSoaks() {
		line, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = line
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	for name, want := range golden {
		if got[name] != want {
			t.Errorf("soak %q line diverged\n got %s\nwant %s", name, got[name], want)
		}
	}
	for name := range got {
		if _, ok := golden[name]; !ok {
			t.Errorf("soak %q has no committed golden (run -update-golden)", name)
		}
	}
}
