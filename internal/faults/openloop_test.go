package faults

import (
	"strings"
	"testing"

	"fastnet/internal/graph"
)

// TestSoakOpenLoopSweep: the open-loop soak runs its rate sweep with
// declared overload sources (finite NCU queues, link buckets, a lossy
// profile), holds I9 on every epoch, and renders a byte-identical line
// across reruns of the same seed.
func TestSoakOpenLoopSweep(t *testing.T) {
	g := graph.GNP(32, 5.0/32, 3)
	cfg := Config{
		Seed: 3, Epochs: 3, Calls: 4000,
		Rate: 0.2, Holding: 200, ZipfS: 1.1, NCUCap: 64, LinkCap: 0.5,
		Loss: 0.02,
	}
	res, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Epochs != 3 || res.OLRuns != 3 {
		t.Fatalf("epochs=%d olruns=%d, want 3/3", res.Epochs, res.OLRuns)
	}
	if res.OL.Generated != 3*4000 {
		t.Fatalf("generated=%d, want 12000", res.OL.Generated)
	}
	// Declared overload must actually bite somewhere in the sweep — the
	// whole point of sweeping the rate up.
	if res.OL.Dropped == 0 {
		t.Fatalf("rate sweep with caps and loss dropped nothing (delivered=%d)", res.OL.Delivered)
	}
	line := res.Line()
	if !strings.Contains(line, "openloop(") {
		t.Fatalf("open-loop line misses its block: %s", line)
	}
	res2, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if line2 := res2.Line(); line2 != line {
		t.Fatalf("open-loop soak not deterministic:\n%s\n%s", line, line2)
	}
}

// TestSoakOpenLoopCleanFabric: with no capacity limits and no fault profile
// the sweep must deliver every call at every rate (I9b) — and a classic
// churn line must not grow the openloop block.
func TestSoakOpenLoopCleanFabric(t *testing.T) {
	g := graph.GNP(24, 5.0/24, 8)
	res, err := Soak(g, Config{Seed: 5, Epochs: 2, Calls: 3000, Rate: 0.5, Holding: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.OL.Delivered != res.OL.Generated {
		t.Fatalf("clean sweep lost calls: delivered=%d of %d (blocked=%d dropped=%d)",
			res.OL.Delivered, res.OL.Generated, res.OL.Blocked, res.OL.Dropped)
	}
	classic, err := Soak(g, Config{Seed: 5, Epochs: 1, Flaps: 1, Calls: 1})
	if err != nil {
		t.Fatal(err)
	}
	if line := classic.Line(); strings.Contains(line, "openloop(") {
		t.Fatalf("classic soak line grew the openloop block: %s", line)
	}
}

// TestSoakOpenLoopGosimRejected: the open-loop engine rides the DES spine;
// asking for it under the goroutine runtime is a config error, not a hang.
func TestSoakOpenLoopGosimRejected(t *testing.T) {
	g := graph.Ring(8)
	if _, err := Soak(g, Config{Seed: 1, Epochs: 1, Calls: 10, Rate: 1, Runtime: "gosim"}); err == nil {
		t.Fatal("gosim open-loop soak accepted")
	}
}

// TestReproOpenLoop: the repro line carries the open-loop flags exactly when
// the mode is on, with the holding default resolved so the printed command
// reproduces the run bit for bit.
func TestReproOpenLoop(t *testing.T) {
	cfg := Config{Seed: 9, Epochs: 4, Calls: 2000, Rate: 0.3, ZipfS: 1.1, NCUCap: 16, LinkCap: 0.5}
	repro := cfg.Repro("gnp", 32, 0)
	for _, want := range []string{
		"-rate 0.3", "-holding 256", "-zipf 1.1", "-ncu-cap 16", "-link-cap 0.5",
	} {
		if !strings.Contains(repro, want) {
			t.Fatalf("repro %q misses %q", repro, want)
		}
	}
	classic := Config{Seed: 9, Epochs: 4, Calls: 2}
	if r := classic.Repro("gnp", 32, 0); strings.Contains(r, "-rate") {
		t.Fatalf("classic repro grew open-loop flags: %s", r)
	}
}
