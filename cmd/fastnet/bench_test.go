package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// BenchmarkRows runs every `fastnet bench` row as a sub-benchmark — the
// same definitions the artifact is measured from. For example:
//
//	go test -run '^$' -bench Rows -benchmem ./cmd/fastnet
//	go test -run '^$' -bench 'Rows/^(SingleBroadcast4096|E5)$' ./cmd/fastnet
//
// -short swaps the multi-second rows for scaled-down points of the same
// paths (see benchRows).
func BenchmarkRows(b *testing.B) {
	for _, c := range benchRows(testing.Short()) {
		b.Run(c.name, c.fn)
	}
}

// writeBaseline marshals a benchFile fixture for compareBaseline tests.
func writeBaseline(t *testing.T, rows []benchRow) string {
	t.Helper()
	data, err := json.Marshal(benchFile{Date: "2026-01-01", Benchmarks: rows})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareBaselineRequireAll covers the -require-all contract: a baseline
// benchmark missing from the new run is tolerated by default (advisory mode)
// but an error when coverage is required — silent benchmark drift is exactly
// what the flag exists to catch.
func TestCompareBaselineRequireAll(t *testing.T) {
	base := []benchRow{
		{Name: "A", NsPerOp: 100},
		{Name: "B", NsPerOp: 200},
	}
	path := writeBaseline(t, base)
	fresh := []benchRow{{Name: "A", NsPerOp: 101}}

	if err := compareBaseline(fresh, path, 10, false, matchAll); err != nil {
		t.Fatalf("advisory compare failed on a missing benchmark: %v", err)
	}
	err := compareBaseline(fresh, path, 10, true, matchAll)
	if err == nil {
		t.Fatal("require-all accepted a run missing baseline benchmark B")
	}
	if !strings.Contains(err.Error(), "B") {
		t.Fatalf("error does not name the missing benchmark: %v", err)
	}
}

// TestCompareBaselineRegression pins the regression gate: exceeding the
// threshold errors, staying within it does not, and new benchmarks without a
// baseline never fail the comparison.
func TestCompareBaselineRegression(t *testing.T) {
	path := writeBaseline(t, []benchRow{{Name: "A", NsPerOp: 100}})

	ok := []benchRow{{Name: "A", NsPerOp: 105}, {Name: "New", NsPerOp: 999}}
	if err := compareBaseline(ok, path, 10, true, matchAll); err != nil {
		t.Fatalf("compare failed within threshold: %v", err)
	}
	slow := []benchRow{{Name: "A", NsPerOp: 150}}
	if err := compareBaseline(slow, path, 10, true, matchAll); err == nil {
		t.Fatal("compare accepted a 50% regression with a 10% threshold")
	}
}

// matchAll is the unfiltered name predicate runBench uses without -run.
func matchAll(string) bool { return true }

// TestCompareBaselineMatchScope: with a name filter, -require-all audits
// coverage only within the selection — baseline rows outside the filter are
// not "missing", rows inside it still are.
func TestCompareBaselineMatchScope(t *testing.T) {
	path := writeBaseline(t, []benchRow{
		{Name: "OpenLoopPoisson", NsPerOp: 100},
		{Name: "OpenLoopZipf", NsPerOp: 100},
		{Name: "Election1024", NsPerOp: 100},
	})
	onlyOpenLoop := func(s string) bool { return strings.HasPrefix(s, "OpenLoop") }
	fresh := []benchRow{{Name: "OpenLoopPoisson", NsPerOp: 101}, {Name: "OpenLoopZipf", NsPerOp: 99}}

	if err := compareBaseline(fresh, path, 10, true, onlyOpenLoop); err != nil {
		t.Fatalf("filtered require-all flagged out-of-selection Election1024: %v", err)
	}
	err := compareBaseline(fresh[:1], path, 10, true, onlyOpenLoop)
	if err == nil {
		t.Fatal("filtered require-all accepted a run missing in-selection OpenLoopZipf")
	}
	if !strings.Contains(err.Error(), "OpenLoopZipf") || strings.Contains(err.Error(), "Election1024") {
		t.Fatalf("wrong missing set: %v", err)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns what
// it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	fnErr := fn()
	os.Stdout = old
	w.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if fnErr != nil {
		t.Fatalf("captured run failed: %v", fnErr)
	}
	return string(data)
}

// TestBenchList: -list enumerates every row name without running anything,
// and -run narrows the listing.
func TestBenchList(t *testing.T) {
	full := captureStdout(t, func() error { return runBench([]string{"-list"}) })
	for _, want := range []string{"E1", "E24", "SingleBroadcast4096", "ShardedBroadcast1",
		"OpenLoopPoisson", "OpenLoopBurst", "OpenLoopZipf", "DBRouteMinLoadCold", "TreeBasedExecution"} {
		if !strings.Contains(full, want+"\n") {
			t.Fatalf("-list misses %q:\n%s", want, full)
		}
	}
	filtered := captureStdout(t, func() error { return runBench([]string{"-list", "-run", "^OpenLoop"}) })
	lines := strings.Fields(filtered)
	if len(lines) != 3 {
		t.Fatalf("-run ^OpenLoop listed %d names, want 3:\n%s", len(lines), filtered)
	}
	for _, name := range lines {
		if !strings.HasPrefix(name, "OpenLoop") {
			t.Fatalf("filtered listing leaked %q", name)
		}
	}
}

// TestBenchRunFilterInvalid: a malformed -run regexp is a flag error, not a
// silent match-nothing run.
func TestBenchRunFilterInvalid(t *testing.T) {
	if err := runBench([]string{"-run", "(", "-list"}); err == nil {
		t.Fatal("invalid -run regexp was accepted")
	}
}

// TestBenchRunSelectsNothing: a -run pattern matching no row is an error in
// every mode — listing, measuring, and compare-only — rather than an empty
// listing or artifact and exit status 0.
func TestBenchRunSelectsNothing(t *testing.T) {
	artifact := writeBaseline(t, []benchRow{{Name: "OpenLoopPoisson", NsPerOp: 100}})
	out := filepath.Join(t.TempDir(), "bench.json")
	for _, args := range [][]string{
		{"-list", "-run", "zzz"},
		{"-run", "zzz", "-o", out},
		{"-run", "zzz", "-from", artifact, "-compare", artifact},
	} {
		err := runBench(args)
		if err == nil || !strings.Contains(err.Error(), "selects no benchmark row") {
			t.Errorf("%v: err = %v, want a no-row selection error", args, err)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a run selecting no row wrote an artifact (stat: %v)", err)
	}
}

// TestBenchRunFilterFrom: in compare-only mode, -run narrows both the loaded
// fresh rows and the baseline coverage that -require-all demands.
func TestBenchRunFilterFrom(t *testing.T) {
	baseline := writeBaseline(t, []benchRow{
		{Name: "OpenLoopPoisson", NsPerOp: 100},
		{Name: "Election1024", NsPerOp: 100},
	})
	fresh := writeBaseline(t, []benchRow{
		{Name: "OpenLoopPoisson", NsPerOp: 101},
		// A huge regression on an out-of-filter row must not gate the run.
		{Name: "Election1024", NsPerOp: 900},
	})
	args := []string{"-from", fresh, "-compare", baseline, "-require-all", "-run", "^OpenLoop"}
	if err := runBench(args); err != nil {
		t.Fatalf("filtered compare-only run failed: %v", err)
	}
	// Unfiltered, the same artifacts trip the regression gate.
	if err := runBench([]string{"-from", fresh, "-compare", baseline, "-require-all"}); err == nil {
		t.Fatal("unfiltered compare missed the Election1024 regression")
	}
}

// TestBenchFromArtifact covers compare-only mode: -from loads a previously
// written artifact as the fresh rows, so CI can compare without rerunning
// the suite, and -require-all composes with it.
func TestBenchFromArtifact(t *testing.T) {
	baseline := writeBaseline(t, []benchRow{{Name: "A", NsPerOp: 100}, {Name: "B", NsPerOp: 50}})
	fresh := writeBaseline(t, []benchRow{{Name: "A", NsPerOp: 102}, {Name: "B", NsPerOp: 49}})
	partial := writeBaseline(t, []benchRow{{Name: "A", NsPerOp: 102}})

	if err := runBench([]string{"-from", fresh, "-compare", baseline, "-require-all"}); err != nil {
		t.Fatalf("compare-only run failed on matching artifacts: %v", err)
	}
	if err := runBench([]string{"-from", partial, "-compare", baseline, "-require-all"}); err == nil {
		t.Fatal("require-all accepted an artifact missing baseline benchmark B")
	}
	if err := runBench([]string{"-from", fresh}); err == nil {
		t.Fatal("-from without -compare was accepted")
	}
}
