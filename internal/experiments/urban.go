package experiments

import (
	"fmt"

	"silenttracker/internal/campaign"
	"silenttracker/internal/geom"
	"silenttracker/internal/scenario"
	"silenttracker/internal/sim"
)

// urbanHorizon is the trial window; long enough for walkers crossing
// a sector boundary of the 20 m grid to complete a handover.
const urbanHorizon = 8 * sim.Second

// urbanSpec is the declarative world family: a radius-1 hex grid
// (7 cells) with a mixed fleet spawned across the central two rings.
func urbanSpec(ues int) scenario.Spec {
	const spacing = 20.0
	return scenario.Spec{
		Name:     "urban",
		Topology: scenario.HexGrid(1, spacing),
		Fleet: scenario.Fleet{
			Count: ues,
			Spawn: scenario.AnnulusRegion(geom.V(0, 0), 4, 0.8*spacing),
			Mix:   scenario.Mix{Walk: 0.6, Rotation: 0.2, Vehicular: 0.2},
			// Uniform headings: an urban crowd goes everywhere.
			HeadingJitter: geom.TwoPi,
		},
		Blockers:  scenario.Blockers{Density: 1},
		CellRange: 0.9 * spacing,
		Horizon:   urbanHorizon,
	}
}

// urbanDef is the urban family: a hex-grid deployment with a mixed
// pedestrian/rotation/vehicular fleet — the dense-deployment regime
// where handover storms happen and silent neighbor alignment matters
// most — swept over the fleet size. Per UE it counts completed and
// hard handovers (hard events are a subset: the serving link died
// before the soft path finished) and the share of measurement
// occasions spent on neighbor cells (the "minimal resource usage"
// claim at scale).
var urbanDef = CampaignDef{
	Name:  "urban",
	Title: "Urban hex grid — handover storms under a mixed fleet",
	Quick: 2,
	Spec: func() *campaign.Spec {
		return &campaign.Spec{
			Name:        "urban",
			Description: "hex-grid fleet sweep: handover storms under mixed urban mobility",
			Axes: []campaign.Axis{
				{Name: "ues", Values: []string{"20", "60", "100"}},
			},
			Trials:     12,
			Seed:       9000,
			SeedStride: 31337,
			Epoch:      "urban/v1",
			Config:     urbanSpec(1).Fingerprint(),
			Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
				return urbanTrial(cell.Int("ues"), seed)
			},
		}
	},
	Table: func(cells []campaign.CellResult) Table {
		return foldRows(cells, []Column{
			{Name: "ues"}, {Name: "ho_done", Unit: "%"}, {Name: "ho_per_ue_min", Unit: "1/min"},
			{Name: "ho_p90"}, {Name: "hard_share", Unit: "%"}, {Name: "nbr_occupancy", Unit: "%"},
		}, func(c *campaign.CellResult) []any {
			ho := c.Sample("handovers")
			// The mean reads the counts in trial order, before the
			// quantile sorts them.
			storm := ho.Mean() * 60 / urbanHorizon.Seconds()
			return []any{c.Cell.Float("ues"), pctOf(c, "ho_ok"), storm, ho.Quantile(0.9),
				100 * hardShare(c), 100 * meanOf(c, "neighbor_share")}
		})
	},
	Text: textRows("Urban hex grid (7 cells) — handover storms under a mixed fleet\n"+
		fmt.Sprintf("%-6s %10s %12s %10s %10s %14s\n",
			"UEs", "HO done", "HO/UE/min", "HO p90", "hard/HO", "nbr occupancy"),
		"%-6.0f %9.1f%% %12.2f %10.1f %9.1f%% %13.1f%%\n"),
}

// urbanTrial compiles and runs one fleet; each UE contributes one
// observation per metric, appended in UE index order so folds are
// deterministic.
func urbanTrial(ues int, seed int64) campaign.Metrics {
	dep := scenario.Compile(urbanSpec(ues), seed)
	m := campaign.NewMetrics()
	for i := 0; i < dep.NumUEs(); i++ {
		w := dep.BuildUE(i)
		w.Run(urbanHorizon)
		m.Add("handovers", float64(w.Tracker.HandoversDone))
		m.Record("ho_ok", w.Tracker.HandoversDone > 0)
		m.Add("hard_handovers", float64(w.Tracker.HardHandovers))
		if total := w.ServingListens + w.NeighborListens; total > 0 {
			m.Add("neighbor_share", float64(w.NeighborListens)/float64(total))
		}
	}
	return m
}
