package experiments

import (
	"fmt"

	"silenttracker/internal/campaign"
	"silenttracker/internal/core"
	"silenttracker/internal/geom"
	"silenttracker/internal/scenario"
	"silenttracker/internal/sim"
)

// hotspotHorizon is the trial window.
const hotspotHorizon = 8 * sim.Second

// hotspotSpec is the declarative world family: six cells ringed
// around a hotspot, a pedestrian-heavy fleet spawned between the
// centre and the ring, and a blocker field of the given density.
func hotspotSpec(density float64) scenario.Spec {
	const ringRadius = 14.0
	return scenario.Spec{
		Name:     "hotspot",
		Topology: scenario.Ring(6, ringRadius),
		Fleet: scenario.Fleet{
			Count:         8,
			Spawn:         scenario.AnnulusRegion(geom.V(0, 0), 5, ringRadius-2),
			Mix:           scenario.Mix{Walk: 0.75, Rotation: 0.25},
			HeadingJitter: geom.TwoPi,
		},
		Blockers:  scenario.Blockers{Density: density},
		CellRange: 1.3 * ringRadius,
		Horizon:   hotspotHorizon,
	}
}

// hotspotDef is the hotspot family: a ring of cells around a crowded
// area, swept over the blocker-field density (1 = the calibrated
// default blockage rate, 0 = none), measuring whether silent tracking
// survives as the blockage rate grows: the share of tracking episodes
// that ended in a completed handover or were still holding alignment
// at the horizon (the silent track was never lost), neighbor losses
// per UE, and the completed and hard handovers per UE.
var hotspotDef = CampaignDef{
	Name:  "hotspot",
	Title: "Hotspot ring — silent tracking under a blocker field",
	Quick: 3,
	Spec: func() *campaign.Spec {
		return &campaign.Spec{
			Name:        "hotspot",
			Description: "ring of cells + dense blockers: silent-tracking success under blockage",
			Axes: []campaign.Axis{
				{Name: "density", Values: []string{"0", "0.5", "1", "2", "4"}},
			},
			Trials:     12,
			Seed:       9200,
			SeedStride: 31337,
			Epoch:      "hotspot/v1",
			Config:     hotspotSpec(1).Fingerprint(),
			Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
				return hotspotTrial(cell.Float("density"), seed)
			},
		}
	},
	Table: func(cells []campaign.CellResult) Table {
		return foldRows(cells, []Column{
			{Name: "density"}, {Name: "track_ok", Unit: "%"}, {Name: "losses_per_ue"},
			{Name: "ho_done", Unit: "%"}, {Name: "hard_share", Unit: "%"},
		}, func(c *campaign.CellResult) []any {
			return []any{c.Cell.Float("density"), pctOf(c, "track_ok"), meanOf(c, "losses"),
				pctOf(c, "ho_ok"), 100 * hardShare(c)}
		})
	},
	Text: textRows("Hotspot ring (6 cells) — silent tracking under a blocker field\n"+
		fmt.Sprintf("%-9s %10s %12s %10s %10s\n",
			"density", "track OK", "losses/UE", "HO done", "hard/HO"),
		"%-9.1f %9.1f%% %12.2f %9.1f%% %9.1f%%\n"),
}

// hotspotTrial compiles and runs one fleet at one blocker density.
func hotspotTrial(density float64, seed int64) campaign.Metrics {
	dep := scenario.Compile(hotspotSpec(density), seed)
	m := campaign.NewMetrics()
	for i := 0; i < dep.NumUEs(); i++ {
		w := dep.BuildUE(i)
		tracking, done := false, false
		losses := 0
		w.Tracker.SetEventHook(func(e core.Event) {
			switch e.Type {
			case core.EvNeighborFound:
				tracking = true
			case core.EvNeighborLost:
				losses++
				if tracking {
					m.Record("track_ok", false)
					tracking = false
				}
			case core.EvHandoverComplete:
				done = true
				if tracking {
					m.Record("track_ok", true)
					tracking = false
				}
			}
		})
		w.Run(hotspotHorizon)
		if tracking {
			// Still silently aligned when the window closed: a held
			// track, not a lost one.
			m.Record("track_ok", true)
		}
		m.Count("losses", losses)
		m.Record("ho_ok", done)
		m.Add("handovers", float64(w.Tracker.HandoversDone))
		m.Add("hard_handovers", float64(w.Tracker.HardHandovers))
	}
	return m
}
