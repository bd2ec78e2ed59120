package experiments

import (
	"fmt"

	"silenttracker/internal/antenna"
	"silenttracker/internal/campaign"
	"silenttracker/internal/geom"
	"silenttracker/internal/handover"
	"silenttracker/internal/sim"
)

// patternBook builds the 18-beam, 20° mobile codebook for the named
// pattern model.
func patternBook(model string) *antenna.Codebook {
	switch model {
	case "Gaussian":
		return antenna.NewRingCodebook("mobile-narrow-20", 18, geom.Deg(20), antenna.ModelGaussian)
	case "ULA":
		return antenna.NewRingCodebook("mobile-ula-20", 18, geom.Deg(20), antenna.ModelULA)
	}
	panic("experiments: unknown pattern model " + model)
}

// patternsDef compares beam-pattern models: the smooth 3GPP-style
// Gaussian main lobe the experiments default to, versus a true
// uniform-linear-array factor with real side lobes and nulls. The
// protocol only ever sees RSS, so if its behaviour depended on the
// pattern's analytic form that would be a red flag for the
// reproduction; this ablation checks it does not, with a Fig. 2a-style
// search (narrow codebook, walk) and a Fig. 2c-style walk handover per
// trial.
var patternsDef = CampaignDef{
	Name:  "patterns",
	Alias: "ablation-pattern",
	Title: "Ablation — beam pattern model (Gaussian vs ULA)",
	Quick: 8,
	Spec: func() *campaign.Spec {
		return &campaign.Spec{
			Name:        "patterns",
			Description: "beam pattern model ablation (Gaussian vs ULA): the protocol only sees RSS",
			Axes: []campaign.Axis{
				{Name: "model", Values: []string{"Gaussian", "ULA"}},
			},
			Trials:     60,
			Seed:       7000,
			SeedStride: 15485863,
			Epoch:      "patterns/v1",
			Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
				model := cell.Get("model")
				m := campaign.NewMetrics()
				// Search trial with the model's codebook.
				b := EdgeBuilder(seed)
				b.UEBook = patternBook(model)
				b.Mob = MobilityFor(Walk, seed)
				searchOK, dwells := searchTrialWith(b)
				m.Record("search_ok", searchOK)
				if searchOK {
					m.Add("dwells", float64(dwells))
				}
				// Handover trial with the model's codebook.
				b2 := EdgeBuilder(seed + 1)
				b2.UEBook = patternBook(model)
				b2.Mob = MobilityFor(Walk, seed+1)
				w := b2.Build()
				aud := handover.NewAuditor(1, 0)
				w.Tracker.SetEventHook(aud.Hook(nil))
				horizon := HorizonFor(Walk)
				for w.Engine.Now() < horizon && aud.Completed() == 0 {
					w.Run(w.Engine.Now() + 100*sim.Millisecond)
				}
				rec, hoOK := aud.First()
				m.Record("ho_ok", hoOK)
				if hoOK {
					m.Add("latency_ms", rec.Latency().Millis())
				}
				return m
			},
		}
	},
	Table: func(cells []campaign.CellResult) Table {
		return foldRows(cells, []Column{
			{Name: "model"}, {Name: "success", Unit: "%"}, {Name: "dwells_mean", Unit: "dwells"},
			{Name: "ho_done", Unit: "%"}, {Name: "latency_p50", Unit: "ms"},
		}, func(c *campaign.CellResult) []any {
			lat := c.Sample("latency_ms")
			return []any{c.Cell.Get("model"), pctOf(c, "search_ok"), meanOf(c, "dwells"),
				pctOf(c, "ho_ok"), lat.Median()}
		})
	},
	Text: textRows("Ablation — beam pattern model (narrow codebook, walk)\n"+
		fmt.Sprintf("%-10s %10s %10s %10s %12s\n",
			"Model", "success", "dwells", "HO done", "latency p50"),
		"%-10s %9.1f%% %10.1f %9.1f%% %9.0f ms\n"),
}
