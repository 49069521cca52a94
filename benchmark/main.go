// Command fastnet-bench is the repository benchmark. It runs one named
// workload at a given seed for a given number of host seconds, checks every
// operation it performs, and prints every end-to-end metric (an untraced
// run, --trace 0) or every per-layer metric (a traced run, --trace 1) by
// name with its unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// It is normally started through run.sh, which builds it from the checkout:
//
//	bash benchmark/run.sh --workload flood_jitter --seed 1 --seconds 30 --trace 0
//
// README.md explains the workloads, the metrics and the layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fastnet/internal/graph"
)

// minReps is the fewest repetitions a run makes, however short --seconds
// is, so every median has at least this many samples.
const minReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fastnet-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every input of the run derives from")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	commit := fs.String("commit", "unknown", "source revision, recorded with the result")
	source := fs.String("source", "unknown", "digest of the sources built, recorded with the result")
	oneRep := fs.Int("rep", -1, "internal: run only repetition `i` and print its report (the untraced run starts one process per repetition)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "fastnet-bench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "fastnet-bench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	if *oneRep >= 0 {
		if err := childRep(w, *seed, *oneRep, stdout); err != nil {
			fmt.Fprintln(stderr, "fastnet-bench:", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "workload %s: %s\n", w.name, w.size)
	fmt.Fprintf(stdout, "op: %s\n", w.op)
	fmt.Fprintf(stdout, "seed=%d gomaxprocs=%d go=%s commit=%s source=%s trace=%d seconds=%g\n",
		*seed, procs, runtime.Version(), *commit, *source, *traceFlag, *seconds)

	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *traceFlag == 0 {
		res, err = endToEnd(w, *seed, budget)
	} else {
		res, err = perLayer(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fastnet-bench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "fastnet-bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// result is what one invocation reports.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Failures  []string
	Notes     []string
	Metrics   []metric
}

func (r *result) info(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

func (r *result) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{name, unit, v})
}

// absorb counts one repetition's operations into the result.
func (r *result) absorb(rep int, o outcome) {
	r.Attempted += o.ops
	r.Failed += o.failed
	if o.failed > 0 {
		r.Failures = append(r.Failures, fmt.Sprintf("rep %d: %s", rep, o.note))
	}
}

// fail marks a check that invalidates ops operations.
func (r *result) fail(ops int, format string, a ...any) {
	r.Failed += ops
	r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
}

// print writes the human-readable report and then, as the last line, the
// JSON result.
func (r *result) print(out io.Writer) error {
	r.Correct = r.Failed == 0 && len(r.Failures) == 0
	for _, n := range r.Notes {
		fmt.Fprintln(out, n)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(out, "%-32s %d of %d ops (error_rate %g)\n", "failed", r.Failed, r.Attempted, errRate)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(r.Metrics))
	for _, m := range r.Metrics {
		fmt.Fprintf(out, "%-32s %-14.6g %s\n", m.Name, m.Value, m.Unit)
		ms[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// rep is one measured repetition: set up a fresh instance, then run it.
type rep struct {
	setup, run time.Duration
	out        outcome
	g          *graph.Graph
}

// opsPerSec is the repetition's throughput over its run phase.
func (r rep) opsPerSec() float64 { return float64(r.out.ops) / r.run.Seconds() }

// runRep sets up and runs repetition i, timing set-up and run from outside.
func runRep(w *workload, seed int64, i int, tr *tracer, rt *runtimeLedger) (rep, error) {
	inst := w.newInstance(instanceSeed(seed, i), tr != nil)
	if err := tr.startRep(i); err != nil {
		return rep{}, err
	}
	t0 := time.Now()
	inst.setup(tr)
	rt.begin()
	t1 := time.Now()
	inst.run(tr)
	t2 := time.Now()
	rt.end()
	if err := tr.endRep(); err != nil {
		return rep{}, err
	}
	return rep{setup: t1.Sub(t0), run: t2.Sub(t1), out: inst.check(), g: inst.graph()}, nil
}

// repReport is what a process running one repetition prints.
type repReport struct {
	Setup  float64 `json:"setup_s"`
	Run    float64 `json:"run_s"`
	Ops    int     `json:"ops"`
	Failed int     `json:"failed"`
	Note   string  `json:"note"`
	RSS    float64 `json:"rss_mb"`
}

// childRep runs repetition i alone in this process and reports it with the
// process's peak resident set size.
func childRep(w *workload, seed int64, i int, out io.Writer) error {
	r, err := runRep(w, seed, i, nil, nil)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(repReport{
		Setup: r.setup.Seconds(), Run: r.run.Seconds(),
		Ops: r.out.ops, Failed: r.out.failed, Note: r.out.note, RSS: rss,
	})
}

// instanceSeed derives repetition i's instance seed from the run seed
// (splitmix64 finalizer), so consecutive repetitions draw unrelated graphs
// and schedules.
func instanceSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// endToEnd is the untraced run: setup_s, ops_per_s and peak_rss_mb.
// Every repetition runs in a fresh process: its peak resident set is then
// that one instance's, not the high-water mark of everything before it,
// and no repetition inherits another's heap. Each metric is the median
// over the repetitions.
func endToEnd(w *workload, seed int64, budget time.Duration) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own executable: %w", err)
	}
	res := &result{}
	var setups, rates, rsses []float64
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10), "--rep", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		line, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", i, err)
		}
		var r repReport
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("rep %d report: %w", i, err)
		}
		res.absorb(i, outcome{ops: r.Ops, failed: r.Failed, note: r.Note})
		setups = append(setups, r.Setup)
		rates = append(rates, float64(r.Ops)/r.Run)
		rsses = append(rsses, r.RSS)
	}
	res.info("reps=%d", len(rates))
	res.info("per-rep setup_s %s", formatAll(setups))
	res.info("per-rep ops_per_s %s", formatAll(rates))
	res.info("per-rep peak_rss_mb %s", formatAll(rsses))
	vals := map[string]float64{
		"ops_per_s":   median(rates),
		"setup_s":     median(setups),
		"peak_rss_mb": median(rsses),
	}
	for _, m := range endToEndMetrics {
		res.add(m.Name, m.Unit, vals[m.Name])
	}
	return res, nil
}

// endToEndMetrics is every metric an untraced run reports.
var endToEndMetrics = []metric{
	{Name: "ops_per_s", Unit: "1/s"},
	{Name: "setup_s", Unit: "s"},
	{Name: "peak_rss_mb", Unit: "MB"},
}

// peakRSSMB is this process's peak resident set size. Linux folds the
// parent's peak into a child's at exec, but the parent of a repetition is
// the small orchestrating process, so the figure is the repetition's own.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Maxrss is in KiB on Linux
}

func formatAll(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(s, " ")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
