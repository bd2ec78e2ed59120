package experiments

import (
	"fmt"

	"silenttracker/internal/campaign"
	"silenttracker/internal/geom"
	"silenttracker/internal/handover"
	"silenttracker/internal/mobility"
	"silenttracker/internal/netem"
	"silenttracker/internal/sim"
)

// Variant names a beam-management strategy for the baseline
// comparison.
type Variant int

// The compared strategies.
const (
	// SilentTracker is the paper's protocol: silent neighbor tracking
	// begun proactively at the cell edge.
	SilentTracker Variant = iota
	// Reactive is the omnidirectional-era strategy the paper argues
	// against: do nothing until the serving link dies, then search.
	Reactive
	// Genie is the lower bound: an oracle hands the tracker the
	// neighbor's beam pair at t=0 with no search at all.
	Genie
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case SilentTracker:
		return "SilentTracker"
	case Reactive:
		return "Reactive"
	default:
		return "Genie"
	}
}

// VariantNamed parses a Variant from its String form.
func VariantNamed(name string) Variant {
	switch name {
	case "SilentTracker":
		return SilentTracker
	case "Reactive":
		return Reactive
	case "Genie":
		return Genie
	}
	panic("experiments: unknown variant " + name)
}

// baselineHorizon is the baseline comparison's trial window.
const baselineHorizon = 8 * sim.Second

// baselineDef compares the beam-management strategies on one
// workload: the mobile walks out of cell 1's coverage (a 14 m soft
// range edge models mm-wave corner loss), so the serving link
// *permanently* dies mid-walk and each strategy's recovery path is
// what gets measured. Recovery is the total interruption over trials
// that suffered at least one serving-link death — the moment of truth
// the strategies differ on: an aligned silent beam recovers in one
// RACH exchange, a reactive mobile must search first.
var baselineDef = CampaignDef{
	Name:  "baseline",
	Title: "Baseline comparison — soft vs reactive vs genie",
	Quick: 6,
	Spec: func() *campaign.Spec {
		return &campaign.Spec{
			Name:        "baseline",
			Description: "strategy comparison (SilentTracker vs Reactive vs Genie) on a coverage-exit walk",
			Axes: []campaign.Axis{
				{Name: "variant", Values: []string{"SilentTracker", "Reactive", "Genie"}},
			},
			Trials:     40,
			Seed:       6000,
			SeedStride: 179426549,
			Epoch:      "baseline/v1",
			Config:     fmt.Sprintf("horizon=%d", baselineHorizon),
			Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
				return baselineTrial(VariantNamed(cell.Get("variant")), seed)
			},
		}
	},
	Table: func(cells []campaign.CellResult) Table {
		return foldRows(cells, []Column{
			{Name: "strategy"}, {Name: "ho_done", Unit: "%"}, {Name: "hard", Unit: "%"},
			{Name: "latency_p50", Unit: "ms"}, {Name: "interrupt_mean", Unit: "ms"},
			{Name: "recovery_mean", Unit: "ms"}, {Name: "loss", Unit: "%"}, {Name: "outage_p90", Unit: "ms"},
		}, func(c *campaign.CellResult) []any {
			lat, outage := c.Sample("latency_ms"), c.Sample("outage_ms")
			return []any{c.Cell.Get("variant"), pctOf(c, "ho_ok"), pctOf(c, "hard"),
				lat.Median(), meanOf(c, "interrupt_ms"), meanOf(c, "recovery_ms"),
				100 * meanOf(c, "loss_rate"), outage.Quantile(0.9)}
		})
	},
	Text: textRows("Baseline comparison — walk out of the serving cell's coverage\n"+
		fmt.Sprintf("%-14s %8s %8s %12s %12s %12s %9s %12s\n",
			"Strategy", "HO done", "hard", "latency p50", "interrupt", "recovery", "loss", "worst outage"),
		"%-14s %7.1f%% %7.1f%% %9.0f ms %9.0f ms %9.0f ms %8.2f%% %9.0f ms\n"),
}

// baselineTrial runs the coverage-exit walk under one strategy: the
// first handover's outcome and latency (search start → done), the
// total interruption, packet loss and longest outage of the attached
// flow, and the interruption again as recovery when the serving link
// died.
func baselineTrial(v Variant, seed int64) campaign.Metrics {
	b := EdgeBuilder(seed)
	// Walk from inside cell 1 out through its coverage edge: the
	// serving link dies for good at x ≈ 16–17 m.
	j := jitter(seed)
	b.Mob = walkFrom(j.Uniform(6.5, 7.5), j.Uniform(-0.8, 0.8), seed)
	b.Specs[0].RangeLimit = 14
	switch v {
	case SilentTracker:
		// Defaults: AlwaysSearch at the edge.
	case Reactive:
		b.Cfg.AlwaysSearch = false
		b.Cfg.EdgeRSSdBm = -300 // never search proactively
	case Genie:
		b.Cfg.AlwaysSearch = false
		b.Cfg.EdgeRSSdBm = -300
	}
	w := b.Build()
	if v == Genie {
		// The oracle hands over the neighbor's beam pair immediately.
		ci := w.Device.Cells[2]
		tx, rx := ci.Link.BestBeamsOracle(ci.Pose, w.Device.Pose(0))
		rss := w.P.Channel.MeanRSSdBm(
			ci.Pose.Pos.Dist(w.Device.Pose(0).Pos),
			ci.Book.GainDB(tx, ci.Pose.BearingTo(w.Device.Pose(0).Pos)),
			w.Device.Book.GainDB(rx, w.Device.Pose(0).LocalBearingTo(ci.Pose.Pos)),
		)
		w.Tracker.ForceTrack(0, 2, tx, rx, rss)
	}

	aud := handover.NewAuditor(1, 0)
	w.Tracker.SetEventHook(aud.Hook(nil))
	flow := netem.Attach(w, sim.Millisecond)
	for w.Engine.Now() < baselineHorizon {
		w.Run(w.Engine.Now() + 200*sim.Millisecond)
	}
	flow.Stop()

	// latency_ms and recovery_ms are recorded (empty) even when the
	// trial has no observation for them.
	m := campaign.NewMetrics()
	m.Add("latency_ms")
	m.Add("recovery_ms")
	first, ok := aud.First()
	m.Record("ho_ok", ok)
	if ok {
		m.Record("hard", first.Kind == handover.Hard)
		m.Add("latency_ms", first.Latency().Millis())
	}
	m.Add("interrupt_ms", aud.TotalInterruption().Millis())
	m.Add("loss_rate", flow.LossRate())
	m.Add("outage_ms", flow.LongestOutage.Millis())
	if sawServingDeath(aud) {
		m.Add("recovery_ms", aud.TotalInterruption().Millis())
	}
	return m
}

func sawServingDeath(aud *handover.Auditor) bool {
	for _, r := range aud.Records {
		if r.Interruption > 0 {
			return true
		}
	}
	return false
}

// walkFrom builds the baseline walk at a custom start.
func walkFrom(x, y float64, seed int64) mobility.Model {
	j := jitter(seed + 1)
	return mobility.NewWalk(geom.V(x, y), j.Uniform(-0.08, 0.08), seed)
}
