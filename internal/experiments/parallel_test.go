package experiments

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"fastnet/internal/runner"
	"fastnet/internal/sim"
)

// renderCtx runs spec under rc and returns its rendered table together with
// the scheduler counters of every network the run built.
func renderCtx(spec Spec, rc Ctx) (string, sim.SchedStats, error) {
	stats := &sim.StatsSink{}
	rc.Opts = append(slices.Clip(rc.Opts), sim.WithStatsSink(stats))
	tbl, err := spec.Run(rc)
	if err != nil {
		return "", sim.SchedStats{}, fmt.Errorf("%s with %d workers: %w", spec.ID, rc.Workers, err)
	}
	var b strings.Builder
	tbl.Render(&b)
	return b.String(), stats.Take(), nil
}

func render(t *testing.T, spec Spec, rc Ctx) (string, sim.SchedStats) {
	t.Helper()
	table, sched, err := renderCtx(spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	return table, sched
}

// TestParallelTablesMatchSerial is the acceptance gate for the sweep
// worker pool: rendering an experiment with any worker count must produce
// exactly the bytes of the serial reference run.
func TestParallelTablesMatchSerial(t *testing.T) {
	specs := []Spec{
		{ID: "E1", Run: E1BroadcastVsFlooding},
		{ID: "E5", Run: E5Convergence},
	}
	if !testing.Short() {
		specs = append(specs,
			Spec{ID: "E20", Run: E20Degradation},
			Spec{ID: "E21", Run: E21Reliability},
		)
	}
	for _, s := range specs {
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			serial, _ := render(t, s, Ctx{})
			for _, workers := range []int{3, runner.Workers(0)} {
				if got, _ := render(t, s, Ctx{Workers: workers}); got != serial {
					t.Errorf("table with %d workers diverges from serial run\nserial:\n%s\nparallel:\n%s",
						workers, serial, got)
				}
			}
		})
	}
}

// TestConcurrentContexts renders one experiment under several run contexts
// at once — cut-through on and off, 1 and 3 workers — and requires each
// render, table and scheduler counters alike, to match its serial render.
// The counters differ between fused and unfused runs, so a setting leaking
// from one concurrent run into another would show; under -race the test
// also proves the runs share no mutable state.
func TestConcurrentContexts(t *testing.T) {
	unfused := []sim.Option{sim.WithCutThrough(false)}
	ctxs := []Ctx{{Workers: 1}, {Workers: 3}, {Workers: 1, Opts: unfused}, {Workers: 3, Opts: unfused}}
	spec := Spec{ID: "E1", Run: E1BroadcastVsFlooding}
	type result struct {
		table string
		sched sim.SchedStats
	}
	want := make([]result, len(ctxs))
	for i, rc := range ctxs {
		want[i].table, want[i].sched = render(t, spec, rc)
	}
	if want[0].sched.FusedHops == 0 || want[2].sched.FusedHops != 0 {
		t.Fatalf("cut-through setting not applied: fused %+v, unfused %+v", want[0].sched, want[2].sched)
	}
	got := make([]result, len(ctxs))
	errs := make([]error, len(ctxs))
	var wg sync.WaitGroup
	for i, rc := range ctxs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i].table, got[i].sched, errs[i] = renderCtx(spec, rc)
		}()
	}
	wg.Wait()
	for i := range ctxs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("context %d (%d workers, %d options) diverged under concurrency:\nserial %+v\nconcurrent %+v",
				i, ctxs[i].Workers, len(ctxs[i].Opts), want[i], got[i])
		}
	}
}
