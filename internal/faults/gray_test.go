package faults

import (
	"strings"
	"testing"
	"time"

	"fastnet/internal/graph"
)

// grayCfg is a soak config with both gray-failure dimensions live — slowed
// links and stalled NCUs — on top of churn and the reliable ledger, with no
// loss: every retransmission the run reports was spurious (caused by delay,
// not drop), and exactly-once delivery plus zero false depositions is the
// whole point of invariant I8.
func grayCfg(seed int64, epochs int) Config {
	return Config{
		Seed:     seed,
		Epochs:   epochs,
		Flaps:    1,
		Crashes:  1,
		Reliable: 4,
		Slow:     0.2,
		Stall:    1,
	}
}

// TestGraySoakMultiSeed arms invariant I8 across seeds on the discrete-event
// runtime: slowed links and per-epoch NCU stalls must degrade the run, never
// kill it — the adaptive detector raises zero suspicions against the gray
// leader and the election still completes under slowdown.
func TestGraySoakMultiSeed(t *testing.T) {
	for _, seed := range []int64{2, 5, 9, 13} {
		g := graph.GNP(16, 0.3, seed)
		res, err := Soak(g, grayCfg(seed, 3))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK() {
			t.Fatalf("seed %d: violations: %v", seed, res.Violations)
		}
		if res.GrayElections == 0 {
			t.Fatalf("seed %d: I8's gray election never ran", seed)
		}
		if res.GrayStalls == 0 {
			t.Fatalf("seed %d: no NCU stalls were injected", seed)
		}
		if res.GraySuspects != 0 {
			t.Fatalf("seed %d: %d false depositions survived into a passing result", seed, res.GraySuspects)
		}
		if res.Metrics.FaultSlowdowns == 0 {
			t.Fatalf("seed %d: slowdown faults never fired on the fabric: %s", seed, res.Metrics)
		}
		if res.Det.Probes == 0 || res.Det.Suspected {
			t.Fatalf("seed %d: bogus worst-detector snapshot: %+v", seed, res.Det)
		}
		if !strings.Contains(res.Line(), "gray(elections=") {
			t.Fatalf("seed %d: gray block missing from soak line: %s", seed, res.Line())
		}
	}
}

// TestGraySoakGosim runs the gray soak on the goroutine runtime: slowdown
// manifests as inbox reordering, stalls as forced deschedules, and the same
// invariants must hold under real asynchrony.
func TestGraySoakGosim(t *testing.T) {
	if testing.Short() {
		t.Skip("async soak skipped in -short mode")
	}
	g := graph.GNP(12, 0.35, 4)
	cfg := grayCfg(4, 2)
	cfg.Runtime = "gosim"
	cfg.Timeout = 60 * time.Second
	res, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.GrayElections == 0 || res.GrayStalls == 0 {
		t.Fatalf("gray machinery barely ran: %s", res.Line())
	}
	if res.Metrics.StallTicks == 0 {
		t.Fatalf("stalls never cost the goroutine runtime a deschedule: %s", res.Metrics)
	}
}

// TestGrayStallOnlySoak: a stall-only profile (no slowed links) still arms
// the detector half of I8, and the fabric profile stays empty — node-side
// grayness alone must not cost a single invariant.
func TestGrayStallOnlySoak(t *testing.T) {
	g := graph.GNP(12, 0.35, 7)
	cfg := Config{Seed: 7, Epochs: 3, Flaps: 1, Reliable: 3, Stall: 2}
	res, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.GrayStalls == 0 {
		t.Fatal("no stalls injected")
	}
	if res.GrayElections != 0 {
		t.Fatalf("stall-only config ran a gray election (no slowdown to test): %s", res.Line())
	}
	if res.Metrics.FaultSlowdowns != 0 {
		t.Fatalf("stall-only config fired link slowdowns: %s", res.Metrics)
	}
	if res.Metrics.StallTicks == 0 {
		t.Fatalf("stalls never inflated a software delay: %s", res.Metrics)
	}
}

// TestGraySoakDeterministic: the gray dimensions draw from the same seeded
// streams as everything else, so same seed means a byte-identical line.
func TestGraySoakDeterministic(t *testing.T) {
	g := graph.GNP(12, 0.4, 5)
	a, err := Soak(g, grayCfg(9, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(g, grayCfg(9, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Line() != b.Line() {
		t.Fatalf("same seed, different gray runs:\n%s\n%s", a.Line(), b.Line())
	}
}

// TestGrayOffDifferential pins the compatibility contract from both ends.
// A gray-free lossy run must render with no gray vocabulary anywhere — line,
// metrics, repro — and setting the gray *knobs* (factor, max, window lengths)
// without the gray *rates* (Slow, Stall) must change nothing at all, because
// every gray code path is gated on the rates.
func TestGrayOffDifferential(t *testing.T) {
	g := graph.GNP(12, 0.4, 5)
	base := lossyCfg(9, 3)
	a, err := Soak(g, base)
	if err != nil {
		t.Fatal(err)
	}
	knobs := base
	knobs.SlowFactor = 4
	knobs.SlowMax = 8
	knobs.StallTicks = 8
	b, err := Soak(g, knobs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Line() != b.Line() {
		t.Fatalf("gray knobs without gray rates changed the run:\n%s\n%s", a.Line(), b.Line())
	}
	line := a.Line()
	for _, banned := range []string{"gray(", "slow=", "stallTicks="} {
		if strings.Contains(line, banned) {
			t.Fatalf("gray-free line grew %q: %s", banned, line)
		}
	}
	for _, banned := range []string{"-slow", "-stall"} {
		if repro := base.Repro("gnp", 12, 0); strings.Contains(repro, banned) {
			t.Fatalf("gray-free repro grew %q: %s", banned, repro)
		}
	}
}

// FuzzGrayFailure sweeps gray-failure geometry: any (seed, slowdown, stall,
// loss) mix inside the soak's supported envelope must hold every invariant —
// a violation here is a deterministic repro (the config prints its own
// replay line via Repro).
func FuzzGrayFailure(f *testing.F) {
	f.Add(int64(1), 0.2, 2.0, 4, 1, 0.0)
	f.Add(int64(7), 0.4, 4.0, 8, 2, 0.1)
	f.Add(int64(42), 0.05, 3.0, 1, 0, 0.25)
	f.Add(int64(99), 0.0, 0.0, 0, 3, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, slow, factor float64, slowMax, stall int, loss float64) {
		if seed < 0 {
			seed = -seed
		}
		// Clamp into the supported envelope: rates are probabilities, and
		// the inflation knobs stay inside what a phi=3 detector budget
		// provably absorbs (extreme inflation is indistinguishable from
		// death within 24 probe periods — that is a config error, not a
		// robustness gap).
		if slow < 0 || slow > 0.4 {
			slow = 0.3
		}
		if factor < 1 || factor > 4 {
			factor = 4
		}
		if slowMax < 0 || slowMax > 8 {
			slowMax = 8
		}
		if stall < 0 || stall > 2 {
			stall = 1
		}
		if loss < 0 || loss > 0.25 {
			loss = 0
		}
		if slow == 0 && stall == 0 {
			slow = 0.1
		}
		g := graph.GNP(10, 0.4, seed)
		cfg := Config{
			Seed: seed, Epochs: 2, Flaps: 1, Reliable: 3,
			Loss: loss, Slow: slow, SlowFactor: factor, SlowMax: slowMax, Stall: stall,
		}
		res, err := Soak(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Repro("gnp", 10, 0.4), err)
		}
		if !res.OK() {
			t.Fatalf("%s: violations: %v", cfg.Repro("gnp", 10, 0.4), res.Violations)
		}
	})
}

// TestGrayRepro pins the repro flags: present exactly when configured, with
// defaults filled in so the line replays the run literally.
func TestGrayRepro(t *testing.T) {
	cfg := Config{Seed: 1, Epochs: 2, Slow: 0.3, Stall: 2}
	repro := cfg.Repro("gnp", 20, 0)
	for _, want := range []string{
		"-slow 0.3 -slow-factor 4 -slow-max 8",
		"-stall 2 -stall-ticks 8",
	} {
		if !strings.Contains(repro, want) {
			t.Fatalf("repro %q misses %q", repro, want)
		}
	}
	slowless := Config{Seed: 1, Epochs: 2, Stall: 1}
	if repro := slowless.Repro("gnp", 20, 0); strings.Contains(repro, "-slow ") {
		t.Fatalf("slow flags leaked into a stall-only repro: %s", repro)
	}
	stalless := Config{Seed: 1, Epochs: 2, Slow: 0.1}
	if repro := stalless.Repro("gnp", 20, 0); strings.Contains(repro, "-stall") {
		t.Fatalf("stall flags leaked into a slow-only repro: %s", repro)
	}
}
