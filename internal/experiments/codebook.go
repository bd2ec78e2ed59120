package experiments

import (
	"fmt"

	"silenttracker/internal/antenna"
	"silenttracker/internal/campaign"
	"silenttracker/internal/geom"
)

// codebookDef is the codebook-size sweep: how directional search
// latency scales with the number of receive beams, under the
// human-walk workload. The paper's introduction cites 1.28 s for 5G
// initial search — exactly a 64-beam codebook at the 20 ms sweep
// period; this sweep shows where that number comes from and what the
// paper's 18-beam mobile pays instead. Latencies derive from dwells ×
// sweep period; the full scan is the worst-case exhaustive one.
var codebookDef = CampaignDef{
	Name:  "codebook",
	Alias: "ablation-codebook",
	Title: "Codebook-size sweep — where 1.28 s comes from",
	Quick: 8,
	Spec: func() *campaign.Spec {
		return &campaign.Spec{
			Name:        "codebook",
			Description: "codebook-size sweep: search latency scaling toward the 5G 64-beam, 1.28 s scan",
			Axes: []campaign.Axis{
				{Name: "beams", Values: []string{"6", "12", "18", "36", "64"}},
			},
			Trials:     60,
			Seed:       8000,
			SeedStride: 7919,
			Epoch:      "codebook/v1",
			Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
				n := cell.Int("beams")
				b := EdgeBuilder(seed)
				b.UEBook = antenna.NewRingCodebook(
					fmt.Sprintf("mobile-%d", n), n, geom.Deg(360.0/float64(n)), antenna.ModelGaussian)
				b.Mob = MobilityFor(Walk, seed)
				ok, dwells := searchTrialWith(b)
				m := campaign.NewMetrics()
				m.Record("ok", ok)
				if ok {
					m.Add("dwells", float64(dwells))
				}
				return m
			},
		}
	},
	Table: func(cells []campaign.CellResult) Table {
		return foldRows(cells, []Column{
			{Name: "beams"}, {Name: "hpbw", Unit: "deg"}, {Name: "success", Unit: "%"},
			{Name: "dwells_p50", Unit: "dwells"}, {Name: "latency_p50", Unit: "ms"},
			{Name: "latency_max", Unit: "ms"}, {Name: "full_scan", Unit: "ms"},
		}, func(c *campaign.CellResult) []any {
			n, d := c.Cell.Float("beams"), c.Sample("dwells")
			return []any{n, 360.0 / n, pctOf(c, "ok"), d.Median(), d.Median() * 20, d.Quantile(1) * 20, n * 20}
		})
	},
	Text: textRows("Codebook-size sweep — search latency scaling (human walk)\n"+
		"(the paper cites 1.28 s for 5G initial search: a 64-beam exhaustive scan)\n"+
		fmt.Sprintf("%-7s %7s %9s %10s %10s %10s %12s\n",
			"beams", "HPBW", "success", "dwells p50", "p50 (ms)", "max (ms)", "full scan"),
		"%-7.0f %6.1f° %8.1f%% %10.1f %10.0f %10.0f %9.0f ms\n"),
}
