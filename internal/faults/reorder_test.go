package faults_test

import (
	"strings"
	"testing"

	"fastnet/internal/faults"
	"fastnet/internal/graph"
)

// TestReorderSoakMultiSeed arms invariant I7 across seeds: churn epochs run
// with reorder faults live on the fabric, and each epoch re-runs the
// election under randomized delays plus a reorder-only profile. Every seed
// must hold every invariant — the election's stale-tree recovery is what
// this soak exists to prove.
func TestReorderSoakMultiSeed(t *testing.T) {
	for _, seed := range []int64{2, 5, 9, 13} {
		g := graph.GNP(20, 0.3, seed)
		res, err := faults.Soak(g, faults.Config{
			Seed: seed, Epochs: 3, Flaps: 1, Crashes: 1,
			Reorder: 0.2, ReorderWindow: 12,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK() {
			t.Fatalf("seed %d: violations: %v", seed, res.Violations)
		}
		if res.ReorderElections == 0 {
			t.Fatalf("seed %d: I7 never ran", seed)
		}
		if !strings.Contains(res.Line(), "reorder(elections=") {
			t.Fatalf("seed %d: reorder block missing from soak line: %s", seed, res.Line())
		}
	}
}

// TestReorderSoakGosim runs one reordering soak on the goroutine runtime:
// real asynchrony plus reorder faults, same invariants.
func TestReorderSoakGosim(t *testing.T) {
	if testing.Short() {
		t.Skip("async soak skipped in -short mode")
	}
	g := graph.GNP(16, 0.3, 4)
	res, err := faults.Soak(g, faults.Config{
		Seed: 4, Epochs: 2, Runtime: "gosim", Flaps: 1,
		Reorder: 0.2, ReorderWindow: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.ReorderElections == 0 {
		t.Fatal("I7 never ran")
	}
}

// TestReorderRepro pins the repro-line rendering: the reorder flags appear
// exactly when configured, so pre-reorder configs keep their historical
// byte-identical repro lines.
func TestReorderRepro(t *testing.T) {
	plain := faults.Config{Seed: 1, Epochs: 2, Loss: 0.1}
	if got := plain.Repro("gnp", 20, 0); strings.Contains(got, "reorder") {
		t.Fatalf("reorder flags leaked into a reorder-free repro: %s", got)
	}
	cfg := faults.Config{Seed: 1, Epochs: 2, Reorder: 0.2}
	got := cfg.Repro("gnp", 20, 0)
	if !strings.Contains(got, "-reorder 0.2 -reorder-window 8") {
		t.Fatalf("repro missing reorder flags: %s", got)
	}
}
