// Package experiments regenerates every quantitative artefact of the paper:
// one runner per experiment ID (E1..E14 for the paper's own artefacts,
// E15..E22 for extensions; see DESIGN.md's index). The
// runners return plain tables that cmd/fastnet renders and benchmarks.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"fastnet/internal/sim"
)

// Ctx is the run context an experiment executes under. The zero value is
// the serial reference run on default networks.
type Ctx struct {
	// Workers is the worker-pool width sweep experiments hand to runner.Map
	// (<= 1 = serial). Any width produces byte-identical tables, because
	// every row is an independent DES instance that is a pure function of
	// its seed and results keep input order.
	Workers int
	// Opts are the default sim options of every network the experiment
	// builds. They precede each call site's own options, so an explicit
	// per-call option still wins.
	Opts []sim.Option
}

func (rc Ctx) workers() int { return max(rc.Workers, 1) }

// opts returns the context's options followed by own, in a fresh slice:
// concurrent sweep rows share the context.
func (rc Ctx) opts(own ...sim.Option) []sim.Option {
	return append(slices.Clip(rc.Opts), own...)
}

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting every cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// RenderCSV writes the table as RFC 4180 CSV (header row first; notes are
// omitted).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Spec describes one runnable experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(Ctx) (*Table, error)
}

// All returns every experiment in ID order.
func All() []Spec {
	specs := []Spec{
		{ID: "E1", Title: "Broadcast cost: branching paths vs ARPANET flooding (§3)", Run: E1BroadcastVsFlooding},
		{ID: "E2", Title: "Theorem 2: broadcast time <= log2 n on every tree", Run: E2BroadcastTime},
		{ID: "E3", Title: "Theorem 3: Omega(log n) one-way broadcast on complete binary trees", Run: E3LowerBound},
		{ID: "E4", Title: "The six-node example: one-shot DFS deadlocks, branching paths converge", Run: E4DeadlockExample},
		{ID: "E5", Title: "Theorem 1: eventual consistency; O(d) rounds, O(log d) with full knowledge", Run: E5Convergence},
		{ID: "E6", Title: "Theorem 5: election in <= 6n system calls and O(n) time", Run: E6ElectionCost},
		{ID: "E7", Title: "Classical election baselines stay Omega(n log n) under the new measure", Run: E7ElectionBaselines},
		{ID: "E8", Title: "Example 1 (C=0, P=1): binomial trees, S(k) = 2^(k-1)", Run: E8Binomial},
		{ID: "E9", Title: "Example 3 (C=1, P=1): Fibonacci growth with closed form (11)", Run: E9Fibonacci},
		{ID: "E10", Title: "Example 2 (C=1, P=0): the traditional model degenerates", Run: E10Traditional},
		{ID: "E11", Title: "Optimal completion times over the iP+jC grid match simulation exactly", Run: E11OptimalTime},
		{ID: "E12", Title: "Star vs optimal tree: the crossover as P/C varies (§5 punchline)", Run: E12StarVsTree},
		{ID: "E13", Title: "Appendix: last-causal-message tree extraction and replay (Theorem 6)", Run: E13CausalTree},
		{ID: "E14", Title: "Footnote 1: BFS-layers broadcast — 1 time unit, needs dmax = O(n^2)", Run: E14BFSLayers},
		{ID: "E15", Title: "Extension: ANR header growth and the dmax restriction (§2)", Run: E15HeaderGrowth},
		{ID: "E16", Title: "Extension: compare-capable switching hardware (§6's open question)", Run: E16HardwareAblation},
		{ID: "E17", Title: "Extension: gather/dissemination duality over optimal trees ([BK92] link)", Run: E17Duality},
		{ID: "E18", Title: "Extension: the introduction's premise — data rides hardware, control rides software", Run: E18DataVsControl},
		{ID: "E19", Title: "Extension: broadcast-with-feedback (PIF) — §6's other-algorithms question", Run: E19PIF},
		{ID: "E20", Title: "Extension: degradation under churn — convergence, syscalls, re-election latency", Run: E20Degradation},
		{ID: "E21", Title: "Extension: reliable delivery on lossy links — ARQ overhead and convergence vs loss", Run: E21Reliability},
		{ID: "E22", Title: "Extension: election under non-FIFO links — 6n holds while recovery absorbs reordering", Run: E22Reorder},
		{ID: "E23", Title: "Extension: gray links — spurious retransmits under fixed vs adaptive RTO", Run: E23Gray},
		{ID: "E24", Title: "Extension: open-loop overload — latency vs blocking across capacity regimes", Run: E24OpenLoop},
	}
	sort.Slice(specs, func(i, j int) bool { return idOrder(specs[i].ID) < idOrder(specs[j].ID) })
	return specs
}

func idOrder(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// Lookup finds an experiment by ID (case-insensitive).
func Lookup(id string) (Spec, bool) {
	for _, s := range All() {
		if strings.EqualFold(s.ID, id) {
			return s, true
		}
	}
	return Spec{}, false
}
