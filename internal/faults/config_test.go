package faults

import (
	"flag"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// draw sets f's field of c to a random value inside the row's valid range,
// or to zero (the unset default) where the row defines one.
func draw(f field, c *Config, rng *rand.Rand) {
	v := f.value(c)
	switch {
	case f.oneOf != nil:
		v.Set(reflect.ValueOf(f.oneOf[rng.Intn(len(f.oneOf))]))
		return
	case v.Kind() == reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
		return
	}
	lo, hi := -1e6, 1e6
	if f.in != nil {
		lo, hi = f.in.lo, min(f.in.hi, f.in.lo+100)
	}
	x := lo + rng.Float64()*(hi-lo)
	if f.unset != nil && rng.Intn(4) == 0 {
		x = 0
	}
	if v.CanInt() {
		v.SetInt(int64(x))
	} else {
		v.SetFloat(x)
	}
}

// replay parses cfg's repro line with the fastnet soak flag set and requires
// the same config, after the defaults pass, and the same graph flags back.
func replay(t *testing.T, cfg Config, topo string, n int, gnpP float64) {
	t.Helper()
	line := cfg.Repro(topo, n, gnpP)
	args, ok := strings.CutPrefix(line, "fastnet soak ")
	if !ok {
		t.Fatalf("repro %q is not a fastnet soak command", line)
	}
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var got Config
	got.RegisterFlags(fs)
	gotTopo := fs.String("topo", "gnp", "")
	gotN := fs.Int("n", 64, "")
	gotP := fs.Float64("gnp-p", 0, "")
	if err := fs.Parse(strings.Fields(args)); err != nil || fs.NArg() > 0 {
		t.Fatalf("repro %q does not parse: %v (stray args %q)", line, err, fs.Args())
	}
	if got.withDefaults() != cfg.withDefaults() || *gotTopo != topo || *gotN != n || *gotP != gnpP {
		t.Fatalf("repro %q replays as\n%+v\nwant\n%+v", line, got.withDefaults(), cfg.withDefaults())
	}
}

// TestReproRoundTrip: Config → Repro → the fastnet soak flag set → defaults
// gives back the config — for every table row alone, for seeded random
// combinations of all rows, and for a config with Mode unset — so any failing
// soak prints a line that replays it. Every flag-set Config field must have a
// row, and a config with no fault dimension armed renders no dimension flag.
func TestReproRoundTrip(t *testing.T) {
	rows := map[string]bool{}
	for _, f := range fields {
		rows[f.field] = true
	}
	for _, sf := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if sf.Name != "Verbose" && !rows[sf.Name] {
			t.Errorf("Config.%s has no row in the config table", sf.Name)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for _, f := range fields {
		for i := 0; i < 8; i++ {
			var cfg Config
			draw(f, &cfg, rng)
			replay(t, cfg, "ring", 16, 0)
		}
	}
	for i := 0; i < 200; i++ {
		var cfg Config
		for _, f := range fields {
			draw(f, &cfg, rng)
		}
		if cfg.Rate > 0 {
			cfg.Runtime, cfg.Calls = "des", max(cfg.Calls, 1)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("in-range config rejected: %v\n%+v", err, cfg)
		}
		replay(t, cfg, "gnp", 20, rng.Float64())
	}
	// An unset Mode is branching-paths, not a "mode(0)" the CLI rejects.
	replay(t, Config{Seed: 2, Epochs: 3}, "gnp", 30, 0.2)

	plain := Config{Seed: 9, Epochs: 5, Flaps: 3, Crashes: 1}
	tokens := strings.Fields(plain.Repro("gnp", 64, 0))
	for _, f := range fields {
		if f.cli == nil && slices.Contains(tokens, "-"+f.flag) {
			t.Errorf("repro of a config without fault dimensions names -%s: %v", f.flag, tokens)
		}
	}
}
