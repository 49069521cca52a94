package experiments

import (
	"testing"

	"fastnet/internal/sim"
)

// TestTablesCutThroughInvariant renders every experiment table with
// cut-through switching on and off and requires byte-identical output:
// E1–E21 are the repo's measured-vs-paper results, so this is the
// experiment-level third of the cut-through equivalence evidence (after
// internal/sim's event-level and internal/faults' soak-level differentials)
// — and the proof behind EXPERIMENTS.md's note that no table changed.
// Experiments construct their networks internally, so the unfused path
// rides in on the run context's options. The multi-minute churn sweeps
// E20/E21 are skipped in -short mode; their substrate is covered by the
// soak differential either way.
func TestTablesCutThroughInvariant(t *testing.T) {
	unfused := Ctx{Opts: []sim.Option{sim.WithCutThrough(false)}}
	for _, spec := range All() {
		t.Run(spec.ID, func(t *testing.T) {
			if testing.Short() && (spec.ID == "E20" || spec.ID == "E21") {
				t.Skip("multi-second sweep; soak differential covers the substrate")
			}
			t.Parallel()
			fused, _ := render(t, spec, Ctx{})
			if got, _ := render(t, spec, unfused); got != fused {
				t.Errorf("table diverged between fused and unfused execution\n--- fused ---\n%s--- unfused ---\n%s", fused, got)
			}
		})
	}
}
