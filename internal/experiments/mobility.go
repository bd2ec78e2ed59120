package experiments

import (
	"fmt"

	"silenttracker/internal/campaign"
	"silenttracker/internal/core"
	"silenttracker/internal/geom"
	"silenttracker/internal/sim"
)

// mobilityDef quantifies the paper's §3 claim — "Silent Tracker
// maintains the mobile's receive beam aligned to the potential target
// base station's transmit beam till the successful conclusion of
// handover" — per mobility scenario: the share of 10 ms samples
// between neighbor discovery and handover completion where the tracked
// receive beam's boresight was within one beamwidth of the true
// bearing (the beam still delivers useful gain and the 3 dB rule can
// recover with a single adjacent switch), the angular error over the
// same samples, and how many first handovers concluded, and hard.
var mobilityDef = CampaignDef{
	Name:  "mobility",
	Title: "Alignment held until handover conclusion (§3 claim)",
	Quick: 10,
	Spec: func() *campaign.Spec {
		return &campaign.Spec{
			Name:        "mobility",
			Description: "alignment held until handover conclusion, per mobility scenario (§3 claim)",
			Axes: []campaign.Axis{
				{Name: "scenario", Values: ScenarioNames()},
			},
			Trials:     60,
			Seed:       3000,
			SeedStride: 31337,
			Epoch:      "mobility/v1",
			Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
				return alignmentTrial(ScenarioNamed(cell.Get("scenario")), seed)
			},
		}
	},
	Table: func(cells []campaign.CellResult) Table {
		return foldRows(cells, []Column{
			{Name: "scenario"}, {Name: "aligned", Unit: "%"},
			{Name: "misalign_p50", Unit: "deg"}, {Name: "misalign_p90", Unit: "deg"},
			{Name: "ho_done", Unit: "%"}, {Name: "hard", Unit: "%"},
		}, func(c *campaign.CellResult) []any {
			aligned, mis := c.RateCounts("aligned"), c.Sample("misalign_deg")
			return []any{c.Cell.Get("scenario"), aligned.Percent(), mis.Median(), mis.Quantile(0.9),
				pctOf(c, "ho_done"), pctOf(c, "hard")}
		})
	},
	Text: textRows("Alignment maintained while silently tracking (narrow codebook)\n"+
		fmt.Sprintf("%-10s %10s %12s %12s %10s %8s\n",
			"Scenario", "aligned", "misalign p50", "misalign p90", "HO done", "hard"),
		"%-10s %9.1f%% %10.1f°  %10.1f°  %9.1f%% %7.1f%%\n"),
}

// alignmentTrial runs one scenario instance to its first completed
// handover, sampling alignment every 10 ms while the neighbor beam is
// held. The per-sample alignment records are carried as a
// pre-aggregated counter pair plus the raw misalignment series, so
// folding cached trials reproduces the serial accumulation exactly.
func alignmentTrial(sc Scenario, seed int64) campaign.Metrics {
	w := EdgeWorld(sc, Narrow, seed)
	alignedTol := w.Device.Book.Beamwidth()

	tracking := false
	var trackedCell, alignedOK, alignedN int
	var misalign []float64
	done := false
	hard := false
	w.Tracker.SetEventHook(func(e core.Event) {
		switch e.Type {
		case core.EvNeighborFound:
			tracking, trackedCell = true, e.Cell
		case core.EvNeighborLost:
			tracking = false
		case core.EvHardHandover:
			hard = true
		case core.EvHandoverComplete:
			done = true
			tracking = false
		}
	})

	w.Engine.Every(10*sim.Millisecond, func() {
		if !tracking || done {
			return
		}
		errRad := w.AlignmentError(trackedCell)
		if errRad >= geom.TwoPi {
			return // no beam right now (mid-probe bookkeeping)
		}
		misalign = append(misalign, geom.Rad(errRad))
		alignedN++
		if errRad <= alignedTol {
			alignedOK++
		}
	})

	horizon := HorizonFor(sc)
	for w.Engine.Now() < horizon && !done {
		w.Run(w.Engine.Now() + 100*sim.Millisecond)
	}
	m := campaign.NewMetrics()
	m.Count("aligned_ok", alignedOK)
	m.Count("aligned_n", alignedN)
	m.Add("misalign_deg", misalign...)
	m.Record("ho_done", done)
	m.Record("hard", hard)
	return m
}
