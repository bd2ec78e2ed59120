package experiments

import (
	"fmt"

	"silenttracker/internal/campaign"
	"silenttracker/internal/core"
	"silenttracker/internal/handover"
	"silenttracker/internal/netem"
	"silenttracker/internal/sim"
	"silenttracker/internal/stats"
	"silenttracker/internal/world"
)

// thresholdHorizon is the margin ablation's trial window: long enough
// for the mobile to dwell in the crossover region.
const thresholdHorizon = 12 * sim.Second

// thresholdDef is the handover-margin (T) ablation: the trade-off
// between ping-pong instability (T too small) and late,
// interruption-prone handover (T too large), on the boundary walk
// with a packet flow attached.
var thresholdDef = CampaignDef{
	Name:  "threshold",
	Alias: "ablation-threshold",
	Title: "Ablation — handover margin T",
	Quick: 6,
	Spec: func() *campaign.Spec {
		return &campaign.Spec{
			Name:        "threshold",
			Description: "handover margin T ablation: ping-pong instability vs late, lossy handover",
			Axes: []campaign.Axis{
				{Name: "margin_db", Values: []string{"0", "3", "6", "9"}},
			},
			Trials:     40,
			Seed:       4000,
			SeedStride: 27644437,
			Epoch:      "threshold/v1",
			Config:     fmt.Sprintf("horizon=%d", thresholdHorizon),
			Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
				b := EdgeBuilder(seed)
				b.Cfg.HandoverMarginDB = cell.Float("margin_db")
				b.Mob = MobilityFor(Walk, seed)
				w := b.Build()
				aud := handover.NewAuditor(1, 0)
				w.Tracker.SetEventHook(aud.Hook(nil))
				flow := netem.Attach(w, sim.Millisecond)
				w.Run(thresholdHorizon)
				flow.Stop()
				m := campaign.NewMetrics()
				m.Count("handovers", aud.Completed())
				m.Count("pingpongs", aud.PingPongs())
				m.Add("interrupt_ms", aud.TotalInterruption().Millis())
				m.Add("loss_rate", flow.LossRate())
				m.Record("no_ho", aud.Completed() == 0)
				return m
			},
		}
	},
	Table: func(cells []campaign.CellResult) Table {
		return foldRows(cells, []Column{
			{Name: "margin", Unit: "dB"}, {Name: "handovers_mean"}, {Name: "pingpongs_mean"},
			{Name: "interrupt_mean", Unit: "ms"}, {Name: "loss", Unit: "%"}, {Name: "no_handover", Unit: "%"},
		}, func(c *campaign.CellResult) []any {
			return []any{c.Cell.Float("margin_db"), meanOf(c, "handovers"), meanOf(c, "pingpongs"),
				meanOf(c, "interrupt_ms"), 100 * meanOf(c, "loss_rate"), pctOf(c, "no_ho")}
		})
	},
	Text: textRows("Ablation — handover margin T (boundary walk, packet flow attached)\n"+
		fmt.Sprintf("%-8s %10s %10s %12s %10s %10s\n",
			"T (dB)", "handovers", "ping-pongs", "interrupt", "loss", "no-HO"),
		"%-8.0f %10.2f %10.2f %9.0f ms %9.2f%% %9.1f%%\n"),
}

// hysteresisDef is the adjacent-switch trigger ablation: the paper's
// 3 dB rule swept. Too sensitive → constant probing (lost measurement
// occasions, noise-chasing switches); too numb → the beam decays to
// loss before the tracker reacts. Rotation is the stress workload:
// 120°/s forces continuous re-alignment.
var hysteresisDef = CampaignDef{
	Name:  "hysteresis",
	Alias: "ablation-hysteresis",
	Title: "Ablation — adjacent-switch trigger (3 dB rule)",
	Quick: 6,
	Spec: func() *campaign.Spec {
		return &campaign.Spec{
			Name:        "hysteresis",
			Description: "adjacent-switch trigger (3 dB rule) ablation under device rotation",
			Axes: []campaign.Axis{
				{Name: "trigger_db", Values: []string{"1", "3", "6", "10"}},
			},
			Trials:     40,
			Seed:       5000,
			SeedStride: 6700417,
			Epoch:      "hysteresis/v1",
			Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
				b := EdgeBuilder(seed)
				b.Cfg.TrackTriggerDB = cell.Float("trigger_db")
				b.Mob = MobilityFor(Rotation, seed)
				return hysteresisTrial(b.Build())
			},
		}
	},
	Table: func(cells []campaign.CellResult) Table {
		return foldRows(cells, []Column{
			{Name: "trigger", Unit: "dB"}, {Name: "switches_mean"}, {Name: "losses_mean"},
			{Name: "misalign_mean", Unit: "deg"}, {Name: "ho_done", Unit: "%"},
		}, func(c *campaign.CellResult) []any {
			return []any{c.Cell.Float("trigger_db"), meanOf(c, "switches"), meanOf(c, "losses"),
				meanOf(c, "misalign_deg"), pctOf(c, "ho_ok")}
		})
	},
	Text: textRows("Ablation — adjacent-switch trigger (device rotation)\n"+
		fmt.Sprintf("%-12s %10s %10s %14s %10s\n",
			"trigger(dB)", "switches", "losses", "misalign(deg)", "HO done"),
		"%-12.0f %10.1f %10.2f %14.1f %9.1f%%\n"),
}

// hysteresisTrial runs one rotation trial to its first completed
// handover: neighbor switches and losses, the mean misalignment while
// tracking (degrees), and whether the handover concluded.
func hysteresisTrial(w *world.World) campaign.Metrics {
	tracking := false
	var trackedCell int
	done := false
	var misalign stats.Online
	w.Tracker.SetEventHook(func(e core.Event) {
		switch e.Type {
		case core.EvNeighborFound:
			tracking, trackedCell = true, e.Cell
		case core.EvNeighborLost:
			tracking = false
		case core.EvHandoverComplete:
			done = true
			tracking = false
		}
	})
	w.Engine.Every(10*sim.Millisecond, func() {
		if tracking && !done {
			if errRad := w.AlignmentError(trackedCell); errRad < 6 {
				misalign.Add(errRad * 180 / 3.141592653589793)
			}
		}
	})
	horizon := HorizonFor(Rotation)
	for w.Engine.Now() < horizon && !done {
		w.Run(w.Engine.Now() + 100*sim.Millisecond)
	}
	m := campaign.NewMetrics()
	m.Add("switches", float64(w.Tracker.NeighborSwitches))
	m.Add("losses", float64(w.Tracker.NeighborLosses))
	m.Add("misalign_deg") // recorded (empty) when the neighbor was never tracked
	if misalign.N() > 0 {
		m.Add("misalign_deg", misalign.Mean())
	}
	m.Record("ho_ok", done)
	return m
}
