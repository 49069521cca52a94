package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchRow is one benchmark's measurement in the BENCH_<date>.json artifact.
// EventsPerOp/EventsPerSec are reported only for the rows that observe the
// discrete-event scheduler's dispatch count (a deterministic per-iteration
// constant).
type benchRow struct {
	Name         string  `json:"name"`
	Iters        int     `json:"iters"`
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerOp  int64   `json:"events_per_op,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// CallsPerOp/CallsPerSec are reported by the open-loop load-plane rows:
	// calls generated per iteration and the sustained generation throughput.
	CallsPerOp  int64   `json:"calls_per_op,omitempty"`
	CallsPerSec float64 `json:"calls_per_sec,omitempty"`
	// MaxProcs is GOMAXPROCS at measurement time, per row: the sharded rows
	// raise it to use all cores, and a throughput number is meaningless
	// without knowing how many cores it was allowed to use.
	MaxProcs int `json:"maxprocs"`
	// Shards is the event-core count of the sharded scheduler rows (absent
	// for classic serial benchmarks).
	Shards int `json:"shards,omitempty"`
}

// benchFile is the BENCH_<date>.json schema: enough machine context to make
// two artifacts comparable, then one row per benchmark.
type benchFile struct {
	Date       string     `json:"date"`
	GoVersion  string     `json:"go"`
	MaxProcs   int        `json:"maxprocs"`
	Notes      []string   `json:"notes,omitempty"` // free-form context (e.g. baseline deltas), added by hand
	Benchmarks []benchRow `json:"benchmarks"`
}

// runBench runs the bench rows (benchRows: the E-rows plus the substrate
// micro benchmarks) benchtime-style — each row is rerun until the
// measurement is stable, via testing.Benchmark — and writes the results as a
// BENCH_<date>.json artifact for trend tracking; compare two artifacts — or
// `go test -bench` output — with benchstat as described in docs/PERF.md, or
// in-process against a committed baseline with -compare.
func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	outPath := fs.String("o", "", "output path (default BENCH_<date>.json)")
	runFilter := fs.String("run", "", "regexp selecting benchmark rows by name (also filters -from rows)")
	list := fs.Bool("list", false, "print every benchmark name this machine would run, then exit")
	compare := fs.String("compare", "", "baseline BENCH_<date>.json to diff against (after writing the artifact)")
	threshold := fs.Float64("threshold", 10, "ns/op regression tolerance for -compare, in percent; exceeding it exits nonzero")
	requireAll := fs.Bool("require-all", false, "with -compare, fail when a baseline benchmark is missing from the new run")
	from := fs.String("from", "", "compare an existing BENCH_<date>.json instead of running benchmarks (requires -compare)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -run narrows the rows by name: the registry's, or (in -from mode) the
	// loaded artifact's. An unfiltered run keeps the full set, so -compare
	// -require-all still audits complete coverage; with a filter, coverage is
	// required only of the selection. A selection of nothing is an error, not
	// an empty artifact.
	match := func(string) bool { return true }
	if *runFilter != "" {
		re, err := regexp.Compile(*runFilter)
		if err != nil {
			return fmt.Errorf("-run: %w", err)
		}
		match = re.MatchString
	}
	noneSelected := fmt.Errorf("-run %q selects no benchmark row", *runFilter)

	// Compare-only mode: load the fresh rows from an artifact written by an
	// earlier run, so CI can gate artifact generation and keep the (noisy)
	// comparison advisory without benchmarking twice.
	if *from != "" {
		if *compare == "" {
			return fmt.Errorf("-from requires -compare")
		}
		data, err := os.ReadFile(*from)
		if err != nil {
			return err
		}
		var fresh benchFile
		if err := json.Unmarshal(data, &fresh); err != nil {
			return fmt.Errorf("%s: %w", *from, err)
		}
		kept := fresh.Benchmarks[:0]
		for _, r := range fresh.Benchmarks {
			if match(r.Name) {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			return noneSelected
		}
		return compareBaseline(kept, *compare, *threshold, *requireAll, match)
	}

	var selected []benchCase
	for _, c := range benchRows(false) {
		if match(c.name) {
			selected = append(selected, c)
		}
	}
	if len(selected) == 0 {
		return noneSelected
	}
	if *list {
		for _, c := range selected {
			fmt.Println(c.name)
		}
		return nil
	}
	var rows []benchRow
	for _, c := range selected {
		fmt.Fprintf(os.Stderr, "bench %s...\n", c.name)
		row, err := c.measure()
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}

	out := benchFile{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		MaxProcs:   runtime.GOMAXPROCS(0),
		Benchmarks: rows,
	}
	path := *outPath
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", out.Date)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d benchmarks to %s\n", len(rows), path)
	if *compare != "" {
		return compareBaseline(rows, *compare, *threshold, *requireAll, match)
	}
	return nil
}

// compareBaseline diffs the fresh rows against a committed BENCH artifact and
// prints one line per benchmark (ns/op and allocs/op movement). Benchmarks
// slower than the baseline by more than threshold percent are regressions:
// they are flagged in the table and make the command exit nonzero, so CI can
// run this as a gate (or, with continue-on-error, as an advisory signal on
// shared runners where timings are noisy). Benchmarks absent from the
// baseline are reported but never fail the comparison; baseline benchmarks
// absent from the NEW run are silent drift — a renamed or dropped benchmark
// would otherwise stop being tracked without anyone noticing — so requireAll
// turns them into an error. match narrows which baseline rows count as
// missing, so a -run-filtered comparison only demands coverage of the
// selection it actually ran.
func compareBaseline(rows []benchRow, path string, threshold float64, requireAll bool, match func(string) bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	baseBy := make(map[string]benchRow, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseBy[r.Name] = r
	}
	newBy := make(map[string]bool, len(rows))
	for _, r := range rows {
		newBy[r.Name] = true
	}
	fmt.Printf("compare vs %s (%s, threshold +%.0f%%):\n", path, base.Date, threshold)
	var regressions []string
	for _, r := range rows {
		b, ok := baseBy[r.Name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Printf("  %-22s %45d ns/op   (no baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		delta := 100 * (float64(r.NsPerOp) - float64(b.NsPerOp)) / float64(b.NsPerOp)
		mark := ""
		if delta > threshold {
			mark = "   REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s (%+.1f%%)", r.Name, delta))
		}
		fmt.Printf("  %-22s %15d -> %15d ns/op  %+7.1f%%   allocs %d -> %d%s\n",
			r.Name, b.NsPerOp, r.NsPerOp, delta, b.AllocsPerOp, r.AllocsPerOp, mark)
	}
	var missing []string
	for _, b := range base.Benchmarks {
		if match(b.Name) && !newBy[b.Name] {
			missing = append(missing, b.Name)
			fmt.Printf("  %-22s %45s\n", b.Name, "(missing from new run)")
		}
	}
	if requireAll && len(missing) > 0 {
		return fmt.Errorf("%d baseline benchmark(s) missing from the new run: %s",
			len(missing), strings.Join(missing, ", "))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%% vs %s: %s",
			len(regressions), threshold, path, strings.Join(regressions, ", "))
	}
	return nil
}

// measure runs the row benchtime-style and returns its artifact row: the
// fastest of c.best harness runs, with GOMAXPROCS raised for a sharded row
// so every shard can have a core. events/op and calls/op are read back from
// the metrics the row reports.
func (c benchCase) measure() (benchRow, error) {
	procs := runtime.GOMAXPROCS(0)
	if c.shards > 0 {
		procs = max(procs, runtime.NumCPU(), c.shards)
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	var best benchRow
	for attempt := 0; attempt < max(c.best, 1); attempt++ {
		r := testing.Benchmark(c.fn)
		if r.N == 0 {
			return benchRow{}, fmt.Errorf("%s failed; `go test -run '^$' -bench 'Rows/^%s$' ./cmd/fastnet` prints why", c.name, c.name)
		}
		row := benchRow{
			Name:        c.name,
			Iters:       r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			MaxProcs:    procs,
			Shards:      c.shards,
		}
		if ns := float64(r.NsPerOp()); ns > 0 {
			if ev := r.Extra["events/op"]; ev > 0 {
				row.EventsPerOp = int64(ev)
				row.EventsPerSec = ev / (ns / 1e9)
			}
			if calls := r.Extra["calls/op"]; calls > 0 {
				row.CallsPerOp = int64(calls)
				row.CallsPerSec = calls / (ns / 1e9)
			}
		}
		if attempt == 0 || row.NsPerOp < best.NsPerOp {
			best = row
		}
	}
	return best, nil
}
