package faults_test

import (
	"testing"

	"fastnet/internal/faults"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// TestSoakCutThroughDifferential runs the three pinned soak configs — plain
// churn, churn with elections and leader crashes, and a lossy fabric with
// the reliable-delivery ledger — with cut-through switching on and off, and
// requires byte-identical result lines. The line aggregates every soak
// observable: invariants I1–I6 (violations), convergence rounds, election
// and call accounting, probe counts, the reliable-delivery ledger, and the
// full metrics block — so equality here is the soak-level half of the
// cut-through equivalence evidence (internal/sim's differential tests are
// the event-level half). The soak builds its networks internally, so the
// unfused path rides in on Soak's default sim options.
func TestSoakCutThroughDifferential(t *testing.T) {
	for name, run := range goldenSoaks() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fused, err := run()
			if err != nil {
				t.Fatal(err)
			}
			unfused, err := run(sim.WithCutThrough(false))
			if err != nil {
				t.Fatal(err)
			}
			if fused != unfused {
				t.Errorf("soak lines diverged\n  fused   %s\n  unfused %s", fused, unfused)
			}
		})
	}
}

// TestSoakSchedStats checks that the DES soak surfaces scheduler
// observability: the zero-hardware-delay fabric should fuse hops and absorb
// same-instant events in the lane.
func TestSoakSchedStats(t *testing.T) {
	g := graph.GNP(20, 0.3, 2)
	res, err := faults.Soak(g, faults.Config{
		Seed: 7, Epochs: 2, Mode: topology.ModeFlood,
		Flaps: 2, Crashes: 1, Downtime: 2, NoElection: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	s := res.Sched
	if s.Events == 0 || s.FusedHops == 0 || s.LanePushes == 0 || s.HeapPeak == 0 {
		t.Fatalf("implausible scheduler stats on a C=0 soak: %+v", s)
	}
	if rate := s.LaneHitRate(); rate <= 0 || rate > 1 {
		t.Fatalf("lane hit rate %v out of range", rate)
	}
	// The goroutine runtime has no discrete-event scheduler to observe.
	gres, err := faults.Soak(g, faults.Config{
		Seed: 7, Epochs: 1, Mode: topology.ModeFlood, NoElection: true,
		Runtime: "gosim", Flaps: 1, Downtime: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if gres.Sched != (sim.SchedStats{}) {
		t.Fatalf("gosim soak reported scheduler stats: %+v", gres.Sched)
	}
}
