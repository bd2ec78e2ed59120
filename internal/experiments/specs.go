package experiments

import (
	"io"

	"silenttracker/internal/campaign"
)

// CampaignParams are the cross-experiment knobs the CLIs expose. Zero
// values select each experiment's full-fidelity defaults; Quick
// substitutes the smoke-run trial count. Because trial seeds depend
// only on (spec, trial index), a quick run's units are a prefix of the
// full run's — a full sweep after a quick one computes just the delta.
type CampaignParams struct {
	Quick  bool
	Seed   int64 // 0 = per-experiment default
	Trials int   // 0 = default (after the Quick reduction)
}

// CampaignDef is one registered experiment, declared once: its names,
// its full-fidelity sweep, the fold of its cells into the typed Table,
// and the text layout that formats that Table. The st package is the
// public face of this registry; the CLIs are shells over st.
type CampaignDef struct {
	Name string
	// Alias is the stbench-era experiment name ("" when identical to
	// Name), e.g. "ablation-threshold" for "threshold".
	Alias string
	// Title is the banner headline stbench prints above the table.
	Title string
	// Quick is the smoke-run trial count per cell, the one
	// CampaignParams.Quick selects.
	Quick int
	// Spec returns a fresh full-fidelity spec; its literal carries
	// every default (axis values, trials, seed schedule, and the knob
	// constants its Config names).
	Spec func() *campaign.Spec
	// Table folds cells into the experiment's typed summary. It is the
	// only fold: Text formats its result.
	Table func(cells []campaign.CellResult) Table
	// Text writes the experiment's text table from its Table.
	Text func(w io.Writer, t *Table)
	// CSV writes the experiment's raw samples as CSV (nil when the
	// experiment has no CSV form).
	CSV func(w io.Writer, cells []campaign.CellResult)
}

// Build returns the def's spec at p: the full-fidelity spec with the
// trial count and seed overridden where p sets them.
func (d *CampaignDef) Build(p CampaignParams) *campaign.Spec {
	s := d.Spec()
	switch {
	case p.Trials > 0:
		s.Trials = p.Trials
	case p.Quick:
		s.Trials = d.Quick
	}
	if p.Seed != 0 {
		s.Seed = p.Seed
	}
	return s
}

// CampaignNamed returns the registered campaign with the given
// canonical name or stbench alias, and whether one exists.
func CampaignNamed(name string) (CampaignDef, bool) {
	for _, def := range Campaigns() {
		if def.Name == name || def.Alias == name {
			return def, true
		}
	}
	return CampaignDef{}, false
}

// Campaigns returns every registered campaign — the eight paper
// experiments plus the three scenario-generated families (urban,
// highway, hotspot) — in stbench's canonical order. This registry is
// the only execution path: the public st package (and through it
// every CLI and the daemon) and the root benchmarks run experiments
// through these defs.
func Campaigns() []CampaignDef {
	return []CampaignDef{
		fig2aDef, fig2cDef, mobilityDef, thresholdDef, hysteresisDef,
		baselineDef, patternsDef, codebookDef, urbanDef, highwayDef, hotspotDef,
	}
}
