package experiments

import (
	"fmt"

	"silenttracker/internal/campaign"
	"silenttracker/internal/core"
	"silenttracker/internal/geom"
	"silenttracker/internal/scenario"
	"silenttracker/internal/sim"
)

// highwaySpacing is the corridor inter-site distance, meters.
const highwaySpacing = 25.0

// highwaySpec is the declarative world family: a five-cell corridor
// with a vehicular fleet spawned before the first boundary, driving
// east with small heading jitter.
func highwaySpec(speed float64) scenario.Spec {
	return scenario.Spec{
		Name:     "highway",
		Topology: scenario.LinearCorridor(5, highwaySpacing),
		Fleet: scenario.Fleet{
			Count:         10,
			Spawn:         scenario.RectRegion(geom.V(2, -2), geom.V(14, 2)),
			Mix:           scenario.Mix{Vehicular: 1},
			Heading:       0,
			HeadingJitter: 0.04,
			Speed:         speed,
		},
		Blockers:  scenario.Blockers{Density: 1},
		CellRange: 0.8 * highwaySpacing,
		Horizon:   highwayHorizon(speed),
	}
}

// highwayHorizon scales the trial window to the speed: time to cover
// two inter-site distances (two boundary crossings), bounded to keep
// slow sweeps affordable and fast ones meaningful.
func highwayHorizon(speed float64) sim.Time {
	t := 2 * highwaySpacing / speed
	if t > 12 {
		t = 12
	}
	if t < 3 {
		t = 3
	}
	return sim.Time(t * float64(sim.Second))
}

// highwayDef is the highway family: a vehicular fleet driving a
// linear corridor of cells, swept over speed (25 m/s is ~56 mph —
// nearly three times the paper's vehicular case), measuring how long
// the silently tracked neighbor beam is held: the tracking-episode
// durations (neighbor found → handover complete, neighbor lost, or
// horizon), the share of 10 ms samples within one beamwidth while
// tracking, and the completed and hard handovers per UE.
var highwayDef = CampaignDef{
	Name:  "highway",
	Title: "Highway corridor — alignment hold duration vs speed",
	Quick: 3,
	Spec: func() *campaign.Spec {
		speeds := []float64{5, 10, 15, 20, 25}
		values := make([]string, len(speeds))
		// The horizon depends on the swept speed, so the placeholder
		// fingerprint alone would not see highwayHorizon changes; fold
		// the realized horizon of every axis value into the config
		// identity.
		horizons := make([]string, len(speeds))
		for i, v := range speeds {
			values[i] = fmt.Sprintf("%g", v)
			horizons[i] = fmt.Sprintf("%d", int64(highwayHorizon(v)))
		}
		return &campaign.Spec{
			Name:        "highway",
			Description: "corridor vehicular fleet: alignment hold duration vs speed",
			Axes: []campaign.Axis{
				{Name: "speed_mps", Values: values},
			},
			Trials:     12,
			Seed:       9100,
			SeedStride: 31337,
			Epoch:      "highway/v1",
			Config:     fmt.Sprintf("%s horizons=%v", highwaySpec(1).Fingerprint(), horizons),
			Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
				return highwayTrial(cell.Float("speed_mps"), seed)
			},
		}
	},
	Table: func(cells []campaign.CellResult) Table {
		return foldRows(cells, []Column{
			{Name: "speed", Unit: "m/s"}, {Name: "hold_p50", Unit: "ms"}, {Name: "hold_p90", Unit: "ms"},
			{Name: "aligned", Unit: "%"}, {Name: "ho_done", Unit: "%"}, {Name: "hard_share", Unit: "%"},
		}, func(c *campaign.CellResult) []any {
			hold, aligned := c.Sample("hold_ms"), c.RateCounts("aligned")
			return []any{c.Cell.Float("speed_mps"), hold.Median(), hold.Quantile(0.9),
				aligned.Percent(), pctOf(c, "ho_ok"), 100 * hardShare(c)}
		})
	},
	Text: textRows("Highway corridor (5 cells) — silent alignment hold vs vehicular speed\n"+
		fmt.Sprintf("%-10s %10s %10s %10s %10s %10s\n",
			"speed", "hold p50", "hold p90", "aligned", "HO done", "hard/HO"),
		"%-7.0f m/s %7.0f ms %7.0f ms %9.1f%% %9.1f%% %9.1f%%\n"),
}

// highwayTrial compiles and runs one fleet at one speed. The aligned
// counters accumulate across the whole fleet and are recorded once
// per trial: RateCounts folds them via Scalar, which reads a single
// observation per trial.
func highwayTrial(speed float64, seed int64) campaign.Metrics {
	dep := scenario.Compile(highwaySpec(speed), seed)
	horizon := highwayHorizon(speed)
	m := campaign.NewMetrics()
	var alignedOK, alignedN int
	for i := 0; i < dep.NumUEs(); i++ {
		w := dep.BuildUE(i)
		alignedTol := w.Device.Book.Beamwidth()

		tracking, done := false, false
		var trackedCell int
		var trackStart sim.Time
		endEpisode := func(at sim.Time) {
			if tracking {
				m.Add("hold_ms", (at - trackStart).Millis())
				tracking = false
			}
		}
		w.Tracker.SetEventHook(func(e core.Event) {
			switch e.Type {
			case core.EvNeighborFound:
				tracking, trackedCell, trackStart = true, e.Cell, e.At
			case core.EvNeighborLost:
				endEpisode(e.At)
			case core.EvHandoverComplete:
				done = true
				endEpisode(e.At)
			}
		})
		w.Engine.Every(10*sim.Millisecond, func() {
			if !tracking {
				return
			}
			errRad := w.AlignmentError(trackedCell)
			if errRad >= geom.TwoPi {
				return // no beam right now (mid-probe bookkeeping)
			}
			alignedN++
			if errRad <= alignedTol {
				alignedOK++
			}
		})
		w.Run(horizon)
		endEpisode(horizon)
		m.Record("ho_ok", done)
		m.Add("handovers", float64(w.Tracker.HandoversDone))
		m.Add("hard_handovers", float64(w.Tracker.HardHandovers))
	}
	m.Count("aligned_ok", alignedOK)
	m.Count("aligned_n", alignedN)
	return m
}
