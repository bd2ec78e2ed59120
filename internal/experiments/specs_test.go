package experiments

import (
	"testing"

	"silenttracker/internal/campaign"
)

// renderSpec runs the def's spec through the engine and renders its
// table.
func renderSpec(t *testing.T, eng *campaign.Engine, def CampaignDef, spec *campaign.Spec) (string, campaign.RunStats) {
	t.Helper()
	cells, stats := eng.Run(spec)
	return render(def, cells), stats
}

// TestCampaignRegistryCoversAllExperiments is the `stcampaign list`
// gate: all eight ported experiments plus the three scenario-generated
// families must be registered, buildable, and renderable.
func TestCampaignRegistryCoversAllExperiments(t *testing.T) {
	want := []string{"fig2a", "fig2c", "mobility", "threshold",
		"hysteresis", "baseline", "patterns", "codebook",
		"urban", "highway", "hotspot"}
	defs := Campaigns()
	if len(defs) != len(want) {
		t.Fatalf("%d campaigns registered, want %d", len(defs), len(want))
	}
	for i, def := range defs {
		if def.Name != want[i] {
			t.Errorf("campaign %d = %q, want %q", i, def.Name, want[i])
		}
		spec := def.Build(CampaignParams{Quick: true})
		if spec.Name != def.Name {
			t.Errorf("spec name %q under registry name %q", spec.Name, def.Name)
		}
		if spec.Trials != def.Quick || def.Spec().Trials <= def.Quick {
			t.Errorf("%s: quick trials %d, full %d", def.Name, spec.Trials, def.Spec().Trials)
		}
		if len(spec.Axes) == 0 || spec.Trial == nil || def.Table == nil || def.Text == nil {
			t.Errorf("%s: incomplete def", def.Name)
		}
		if spec.Epoch == "" {
			t.Errorf("%s: no cache epoch", def.Name)
		}
	}
}

// TestCampaignColdWarmByteIdentical is the tentpole's acceptance
// test: for every registered experiment, a warm run of an
// already-computed spec performs zero trial computations and emits
// byte-identical tables to the cold run; and the cold run at -j8
// matches a warm run folded at -j1.
func TestCampaignColdWarmByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial experiment")
	}
	for _, def := range Campaigns() {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			t.Parallel()
			cache, err := campaign.Open(t.TempDir() + "/cache")
			if err != nil {
				t.Fatal(err)
			}
			spec := def.Build(CampaignParams{Quick: true, Trials: 3})

			cold, cs := renderSpec(t, &campaign.Engine{Store: cache, Workers: 8}, def, spec)
			if cs.Computed != spec.Units() || cs.Cached != 0 {
				t.Fatalf("cold run: %v, want %d computed", cs, spec.Units())
			}
			warm, ws := renderSpec(t, &campaign.Engine{Store: cache, Workers: 1}, def, spec)
			if ws.Computed != 0 || ws.Cached != spec.Units() {
				t.Fatalf("warm run not fully cached: %v", ws)
			}
			if cold != warm {
				t.Errorf("cold (j8) and warm (j1) output differ:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
			}
			uncached, _ := renderSpec(t, &campaign.Engine{Workers: 4}, def, spec)
			if uncached != cold {
				t.Errorf("cacheless run differs from cold run")
			}
		})
	}
}

// TestCampaignCacheInvalidation checks the content-address includes
// everything that should invalidate a cell: the seed, the epoch, and
// the cell's own axis values — while sharing everything that should
// be shared (a grown sweep reuses its prefix).
func TestCampaignCacheInvalidation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial experiment")
	}
	cache, err := campaign.Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	eng := &campaign.Engine{Store: cache, Workers: 8}
	build := func(p CampaignParams) *campaign.Spec {
		p.Trials = 2
		return thresholdDef.Build(p)
	}

	base := build(CampaignParams{})
	if _, st := eng.Run(base); st.Computed != base.Units() {
		t.Fatalf("cold: %v", st)
	}

	// Same spec, one more margin: only the new cell computes.
	grown := build(CampaignParams{})
	grown.Axes[0].Values = append(grown.Axes[0].Values, "12")
	if _, st := eng.Run(grown); st.Computed != grown.Trials || st.Cached != base.Units() {
		t.Errorf("grown sweep: %v, want %d computed %d cached", st, grown.Trials, base.Units())
	}

	// A different seed shares nothing.
	reseeded := build(CampaignParams{Seed: 999})
	if _, st := eng.Run(reseeded); st.Computed != reseeded.Units() {
		t.Errorf("reseeded sweep: %v, want all %d computed", st, reseeded.Units())
	}

	// An epoch bump (simulation semantics changed) shares nothing.
	bumped := build(CampaignParams{})
	bumped.Epoch = "threshold/v2-test"
	if _, st := eng.Run(bumped); st.Computed != bumped.Units() {
		t.Errorf("epoch-bumped sweep: %v, want all %d computed", st, bumped.Units())
	}

	// A config change (non-axis knob) shares nothing.
	horizoned := build(CampaignParams{})
	horizoned.Config = "horizon=1s-test"
	if _, st := eng.Run(horizoned); st.Computed != horizoned.Units() {
		t.Errorf("config-changed sweep: %v, want all %d computed", st, horizoned.Units())
	}
}

// TestCampaignQuickIsPrefixOfFull checks the seed schedule property
// the cache relies on: a full-fidelity sweep after a quick one reuses
// every quick unit and computes only the delta.
func TestCampaignQuickIsPrefixOfFull(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial experiment")
	}
	cache, err := campaign.Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	eng := &campaign.Engine{Store: cache, Workers: 8}
	build := func(trials int) *campaign.Spec {
		spec := codebookDef.Build(CampaignParams{Trials: trials})
		spec.Axes[0].Values = []string{"6", "18"}
		return spec
	}

	quick := build(2)
	if _, st := eng.Run(quick); st.Computed != quick.Units() {
		t.Fatalf("quick run: %v", st)
	}
	full := build(5)
	if _, st := eng.Run(full); st.Cached != quick.Units() || st.Computed != full.Units()-quick.Units() {
		t.Errorf("full run after quick: %v, want %d cached %d computed",
			st, quick.Units(), full.Units()-quick.Units())
	}
}
