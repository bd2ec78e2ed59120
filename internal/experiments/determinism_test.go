package experiments

import (
	"testing"
)

// TestParallelDeterminism is the runner engine's acceptance test: for
// every experiment, the fully rendered table (and CSV, where there is
// one) at -j 8 must be byte-identical to the output at -j 1. Trial
// counts and sweeps are reduced but every trial body, fold, layout,
// and merge path is exercised.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial experiment")
	}
	experiments := []struct {
		name   string
		trials int
		values []string // narrowed first axis (nil = the full sweep)
	}{
		{"fig2a", 12, nil},
		{"fig2c", 8, nil},
		{"mobility", 4, nil},
		{"baseline", 4, nil},
		{"threshold", 3, []string{"0", "6"}},
		{"hysteresis", 3, []string{"3", "10"}},
		{"patterns", 4, nil},
		{"codebook", 4, []string{"6", "18"}},
		// One scenario-generated family: trial units here are whole
		// fleets, so this additionally pins down the per-entity seed
		// scheduling inside internal/scenario.
		{"highway", 2, []string{"10", "25"}},
	}
	for _, exp := range experiments {
		exp := exp
		t.Run(exp.name, func(t *testing.T) {
			t.Parallel()
			p := CampaignParams{Trials: exp.trials}
			serial := render(runCells(t, exp.name, 1, p, exp.values...))
			parallel := render(runCells(t, exp.name, 8, p, exp.values...))
			if serial != parallel {
				t.Errorf("output differs between -j 1 and -j 8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", serial, parallel)
			}
		})
	}
}
