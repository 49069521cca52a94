package faults

import (
	"errors"
	"strings"
	"testing"
	"time"

	"fastnet/internal/graph"
	"fastnet/internal/topology"
)

func TestSoakDESAllFaultKinds(t *testing.T) {
	g := graph.GNP(12, 0.35, 2)
	cfg := Config{
		Seed:           1,
		Epochs:         5,
		Flaps:          2,
		PartitionEvery: 3,
		Crashes:        1,
		Downtime:       1,
		Calls:          2,
		LeaderCrash:    0.5,
	}
	res, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Epochs != cfg.Epochs {
		t.Fatalf("completed %d epochs, want %d", res.Epochs, cfg.Epochs)
	}
	if res.FaultFlips == 0 || res.CallsSetUp == 0 || res.Elections == 0 || res.ProbesSent == 0 {
		t.Fatalf("soak exercised too little: %s", res.Line())
	}
	if res.ProbesDown == 0 {
		t.Fatal("no down-link probes were sent")
	}
}

func TestSoakDESDeterministic(t *testing.T) {
	g := graph.GNP(10, 0.4, 4)
	cfg := Config{
		Seed: 7, Epochs: 3, Flaps: 2, Crashes: 1, Calls: 1, LeaderCrash: 1,
	}
	a, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Line() != b.Line() {
		t.Fatalf("same seed, different runs:\n%s\n%s", a.Line(), b.Line())
	}
	c, err := Soak(g, Config{Seed: 8, Epochs: 3, Flaps: 2, Crashes: 1, Calls: 1, LeaderCrash: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Line() == c.Line() {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestSoakGosim(t *testing.T) {
	g := graph.GNP(10, 0.4, 1)
	cfg := Config{
		Seed:    3,
		Epochs:  3,
		Runtime: "gosim",
		Flaps:   1,
		Crashes: 1,
		Calls:   1,
		Timeout: 20 * time.Second,
	}
	res, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Epochs != cfg.Epochs {
		t.Fatalf("completed %d epochs, want %d", res.Epochs, cfg.Epochs)
	}
}

func TestSoakAdversary(t *testing.T) {
	g := graph.GNP(10, 0.4, 9)
	res, err := Soak(g, Config{Seed: 5, Epochs: 3, Adversary: true, Calls: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.FaultFlips == 0 {
		t.Fatal("adversary never failed a link")
	}
}

// TestSoakRejectsBadConfig: out-of-range values, open-loop configs that
// cannot generate load, and graphs too small to churn are typed errors
// naming the offending flag — not panics, invariant violations, or silent
// rewrites to a default.
func TestSoakRejectsBadConfig(t *testing.T) {
	ring := graph.Ring(4)
	for name, tc := range map[string]struct {
		g    *graph.Graph
		cfg  Config
		flag string
	}{
		"zero epochs":        {ring, Config{}, "epochs"},
		"unknown runtime":    {ring, Config{Epochs: 1, Runtime: "bogus"}, "runtime"},
		"dfs mode":           {ring, Config{Epochs: 1, Mode: topology.ModeDFS}, "mode"},
		"loss above one":     {ring, Config{Epochs: 1, Loss: 1.5}, "loss"},
		"negative loss":      {ring, Config{Epochs: 1, Loss: -0.5}, "loss"},
		"negative calls":     {ring, Config{Epochs: 1, Calls: -3}, "calls"},
		"negative jittermax": {ring, Config{Epochs: 1, JitterMax: -3}, "jittermax"},
		"negative maxrounds": {ring, Config{Epochs: 1, MaxRounds: -5}, "max-rounds"},
		"open loop, 0 calls": {ring, Config{Epochs: 1, Rate: 1}, "calls"},
		"open loop on gosim": {ring, Config{Epochs: 1, Rate: 1, Calls: 10, Runtime: "gosim"}, "runtime"},
		"empty graph":        {graph.New(0), Config{Epochs: 1}, "n"},
		"one-node graph":     {graph.New(1), Config{Epochs: 1}, "n"},
	} {
		_, err := Soak(tc.g, tc.cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Flag != tc.flag {
			t.Errorf("%s: err = %v, want a *ConfigError on -%s", name, err, tc.flag)
		}
	}
}

func TestConfigRepro(t *testing.T) {
	cfg := Config{Seed: 9, Epochs: 50, Flaps: 3, Adversary: true, NoElection: true}
	line := cfg.Repro("gnp", 64, 0)
	for _, want := range []string{"fastnet soak", "-seed 9", "-topo gnp", "-n 64", "-adversary", "-no-election"} {
		if !strings.Contains(line, want) {
			t.Fatalf("repro %q missing %q", line, want)
		}
	}
}
