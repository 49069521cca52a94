package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestAllSpecsListed(t *testing.T) {
	specs := All()
	if len(specs) != 24 {
		t.Fatalf("%d specs, want 24", len(specs))
	}
	for i, s := range specs {
		want := "E" + strconv.Itoa(i+1)
		if s.ID != want {
			t.Fatalf("spec %d has ID %s, want %s", i, s.ID, want)
		}
		if s.Title == "" || s.Run == nil {
			t.Fatalf("spec %s incomplete", s.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("e6"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("unknown ID must fail")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "EX",
		Title:   "demo",
		Columns: []string{"a", "bbbb"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow(1, "x")
	tbl.AddRow("longer", 2)
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"EX — demo", "a       bbbb", "longer", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// The cheap experiments run end-to-end in tests; the heavyweight ones are
// exercised by the bench rows (cmd/fastnet) and smoke-checked here via table shape only
// when -short is not set.
func TestRunCheapExperiments(t *testing.T) {
	for _, id := range []string{"E3", "E4", "E8", "E9", "E10", "E13"} {
		spec, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tbl, err := spec.Run(Ctx{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Fatalf("%s: row %v does not match columns %v", id, row, tbl.Columns)
			}
		}
	}
}

func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			tbl, err := spec.Run(Ctx{})
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
		})
	}
}

func TestExperimentAssertions(t *testing.T) {
	// E4's content is the paper's core qualitative claim; assert it here so
	// regressions fail loudly rather than only changing a table.
	tbl, err := E4DeadlockExample(Ctx{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, row := range tbl.Rows {
		got[row[0]] = row[1]
	}
	if got["dfs-walk"] != "false" {
		t.Fatalf("DFS must deadlock, got %v", got)
	}
	if got["branching-paths"] != "true" || got["flooding"] != "true" {
		t.Fatalf("branching/flooding must converge, got %v", got)
	}
}

// TestE23AdaptiveBeatsFixed pins E23's qualitative claim: on a gray fabric
// (slowdown, zero loss) the adaptive RTO must cut spurious retransmissions by
// at least 2x against the fixed sender at every nonzero slowdown rate, and
// neither sender may leave a frame unacked — gray links degrade, they never
// lose.
func TestE23AdaptiveBeatsFixed(t *testing.T) {
	if testing.Short() {
		t.Skip("E23 sweep skipped in -short mode")
	}
	tbl, err := E23Gray(Ctx{})
	if err != nil {
		t.Fatal(err)
	}
	type rowStat struct{ spurious, unacked int64 }
	stats := map[string]rowStat{}
	for _, row := range tbl.Rows {
		key := row[0] + "/" + fmtCell(row[1])
		sp, _ := strconv.ParseInt(fmtCell(row[4]), 10, 64)
		un, _ := strconv.ParseInt(fmtCell(row[7]), 10, 64)
		stats[key] = rowStat{sp, un}
	}
	for key, st := range stats {
		if st.unacked != 0 {
			t.Errorf("%s: %d frames left unacked on a loss-free fabric", key, st.unacked)
		}
	}
	for _, rate := range []string{"0.2", "0.4", "0.6"} {
		fixed, adaptive := stats["fixed/"+rate], stats["adaptive/"+rate]
		if fixed.spurious == 0 {
			t.Errorf("slow=%s: fixed sender produced no spurious retransmits; scenario too tame", rate)
			continue
		}
		if adaptive.spurious*2 > fixed.spurious {
			t.Errorf("slow=%s: adaptive %d spurious vs fixed %d — less than the 2x reduction the gray story claims",
				rate, adaptive.spurious, fixed.spurious)
		}
	}
}

func fmtCell(v any) string { return strings.TrimSpace(fmt.Sprint(v)) }
