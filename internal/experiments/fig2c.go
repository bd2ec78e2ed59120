package experiments

import (
	"fmt"
	"io"
	"sort"

	"silenttracker/internal/campaign"
	"silenttracker/internal/handover"
	"silenttracker/internal/sim"
)

// The CDF grid of Fig. 2c's text table: cdfPoints latencies from
// cdfLoMs to cdfHiMs, spanning the paper's 400–1800 ms axis.
const cdfLoMs, cdfHiMs, cdfPoints = 200.0, 2000.0, 10

// cdfAt returns grid point j in ms, as stats.Sample.ECDFGrid spaces it.
func cdfAt(j int) float64 { return cdfLoMs + (cdfHiMs-cdfLoMs)*float64(j)/float64(cdfPoints-1) }

// fig2cSummary is the number of Fig. 2c Table columns before the CDF
// grid's.
const fig2cSummary = 8

// fig2cDef is the paper's Fig. 2c: per mobility scenario, the CDF of
// the time from the start of the neighbor search to the successful
// conclusion of the soft handover, with the narrow (20°) codebook.
var fig2cDef = CampaignDef{
	Name:  "fig2c",
	Title: "Figure 2c — soft handover completion time CDF",
	Quick: 20,
	Spec: func() *campaign.Spec {
		return &campaign.Spec{
			Name:        "fig2c",
			Description: "soft handover completion time CDF per mobility scenario (narrow codebook)",
			Axes: []campaign.Axis{
				{Name: "scenario", Values: ScenarioNames()},
			},
			Trials:     200,
			Seed:       2000,
			SeedStride: 104729,
			Epoch:      "fig2c/v1",
			Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
				rec, ok := HandoverTrial(ScenarioNamed(cell.Get("scenario")), seed)
				m := campaign.NewMetrics()
				m.Record("completed", ok)
				if ok {
					m.Record("soft", rec.Kind == handover.Soft)
					m.Add("latency_ms", rec.Latency().Millis())
					m.Add("dwells", float64(rec.Dwells))
					m.Add("interrupt_ms", rec.Interruption.Millis())
				}
				return m
			},
		}
	},
	// The summary columns, then one column per CDF grid point holding
	// P[latency <= t] scaled by the completion rate, so incomplete
	// trials keep the curve below 1.
	Table: func(cells []campaign.CellResult) Table {
		cols := []Column{
			{Name: "scenario"},
			{Name: "latency_p10", Unit: "ms"}, {Name: "latency_p50", Unit: "ms"},
			{Name: "latency_p90", Unit: "ms"}, {Name: "latency_max", Unit: "ms"},
			{Name: "done", Unit: "%"}, {Name: "soft"}, {Name: "dwells_mean", Unit: "dwells"},
		}
		for j := 0; j < cdfPoints; j++ {
			cols = append(cols, Column{Name: fmt.Sprintf("cdf_%.0fms", cdfAt(j))})
		}
		return foldRows(cells, cols, func(c *campaign.CellResult) []any {
			lat, done := c.Sample("latency_ms"), c.Rate("completed")
			rate := 0.0
			if len(c.Trials) > 0 {
				rate = float64(done.Successes) / float64(len(c.Trials))
			}
			row := []any{c.Cell.Get("scenario"),
				lat.Quantile(0.1), lat.Median(), lat.Quantile(0.9), lat.Quantile(1),
				100 * rate, float64(c.Rate("soft").Successes), meanOf(c, "dwells")}
			for _, p := range lat.ECDFGrid(cdfLoMs, cdfHiMs, cdfPoints) {
				row = append(row, p.P*rate)
			}
			return row
		})
	},
	Text: func(w io.Writer, t *Table) {
		fmt.Fprintln(w, "Fig. 2c — Soft handover completion time (search start → access complete)")
		fmt.Fprintf(w, "%-10s %8s %8s %8s %8s %8s %9s %6s\n",
			"Scenario", "p10(ms)", "p50(ms)", "p90(ms)", "max(ms)", "done", "soft", "dwells")
		for i := 0; i < t.rows(); i++ {
			fmt.Fprintf(w, "%-10s %8.0f %8.0f %8.0f %8.0f %7.0f%% %7.0f %6.1f\n", t.row(i)[:fig2cSummary]...)
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, "CDF grid (P[latency <= t]):")
		fmt.Fprintf(w, "%8s", "t(ms)")
		for _, sc := range t.Columns[0].Labels {
			fmt.Fprintf(w, "%12s", sc)
		}
		fmt.Fprintln(w)
		for j := 0; j < cdfPoints; j++ {
			fmt.Fprintf(w, "%8.0f", cdfAt(j))
			for _, p := range t.Columns[fig2cSummary+j].Values {
				fmt.Fprintf(w, "%12.2f", p)
			}
			fmt.Fprintln(w)
		}
	},
	// One line per completed trial: its own latency and interruption,
	// ordered by latency (ties in trial order).
	CSV: func(w io.Writer, cells []campaign.CellResult) {
		fmt.Fprintln(w, "scenario,latency_ms,interrupt_ms")
		for i := range cells {
			var pairs [][2]float64
			for _, m := range cells[i].Trials {
				if lat := m["latency_ms"]; len(lat) > 0 {
					pairs = append(pairs, [2]float64{lat[0], m.Scalar("interrupt_ms")})
				}
			}
			sort.SliceStable(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] })
			for _, p := range pairs {
				fmt.Fprintf(w, "%s,%g,%g\n", cells[i].Cell.Get("scenario"), p[0], p[1])
			}
		}
	},
}

// HandoverTrial runs one Fig. 2c scenario instance to its first
// completed handover.
func HandoverTrial(sc Scenario, seed int64) (handover.Record, bool) {
	w := EdgeWorld(sc, Narrow, seed)
	aud := handover.NewAuditor(1, 0)
	w.Tracker.SetEventHook(aud.Hook(nil))
	horizon := HorizonFor(sc)
	for w.Engine.Now() < horizon && aud.Completed() == 0 {
		w.Run(w.Engine.Now() + 100*sim.Millisecond)
	}
	return aud.First()
}
