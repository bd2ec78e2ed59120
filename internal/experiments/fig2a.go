package experiments

import (
	"fmt"
	"io"

	"silenttracker/internal/campaign"
	"silenttracker/internal/core"
	"silenttracker/internal/sim"
	"silenttracker/internal/world"
)

// The Fig. 2a search procedure's bounds.
const (
	// scanBudget bounds one search procedure at this many complete
	// codebook sweeps (dwell budget = scanBudget × codebook size). A
	// procedure that has swept every receive beam twice without
	// confirming a cell has failed — this is what makes "success rate"
	// comparable across codebooks of different sizes.
	scanBudget = 2
	// verifyWindow is how long a found beam must survive to count.
	verifyWindow = 100 * sim.Millisecond
)

// fig2aDef is the paper's Fig. 2a: directional neighbor-cell search
// under human walk at the cell edge, per mobile codebook. The right
// panel is the search success rate — the fraction of procedures that
// confirm a usable neighbor beam within the budget and hold it for the
// verification window; the left is the search latency in beam
// searches (receive-beam dwells of one sweep period each) over
// successful searches.
var fig2aDef = CampaignDef{
	Name:  "fig2a",
	Title: "Figure 2a — directional search under mobility",
	Quick: 25,
	Spec: func() *campaign.Spec {
		return &campaign.Spec{
			Name:        "fig2a",
			Description: "directional neighbor search under human walk: success rate and latency per codebook",
			Axes: []campaign.Axis{
				{Name: "config", Values: []string{"Narrow", "Wide", "Omni"}},
			},
			Trials:     150,
			Seed:       1000,
			SeedStride: 7919,
			Epoch:      "fig2a/v1",
			Config:     fmt.Sprintf("budget=%d,verify=%d", scanBudget, verifyWindow),
			Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
				ok, dwells := SearchTrial(BeamConfigNamed(cell.Get("config")), seed)
				m := campaign.NewMetrics()
				m.Record("ok", ok)
				if ok {
					m.Add("dwells", float64(dwells))
					m.Add("latency_ms", float64(dwells)*20)
				}
				return m
			},
		}
	},
	Table: func(cells []campaign.CellResult) Table {
		return foldRows(cells, []Column{
			{Name: "config"},
			{Name: "success", Unit: "%"}, {Name: "ci_lo", Unit: "%"}, {Name: "ci_hi", Unit: "%"},
			{Name: "dwells_mean", Unit: "dwells"}, {Name: "dwells_p50", Unit: "dwells"},
			{Name: "dwells_p90", Unit: "dwells"}, {Name: "dwells_max", Unit: "dwells"},
			{Name: "trials"}, {Name: "trials_ok"},
		}, func(c *campaign.CellResult) []any {
			ok, d := c.Rate("ok"), c.Sample("dwells")
			lo, hi := ok.WilsonCI()
			// The mean reads the dwells in trial order, before the
			// quantiles sort them.
			return []any{c.Cell.Get("config"), ok.Percent(), 100 * lo, 100 * hi,
				d.Mean(), d.Median(), d.Quantile(0.9), d.Quantile(1),
				float64(len(c.Trials)), float64(d.N())}
		})
	},
	Text: func(w io.Writer, t *Table) {
		fmt.Fprintln(w, "Fig. 2a (left) — Search latency under human walk (number of beam searches)")
		fmt.Fprintf(w, "%-8s %8s %8s %8s %8s %10s\n", "Config", "mean", "median", "p90", "max", "trials(ok)")
		for i := 0; i < t.rows(); i++ {
			r := t.row(i)
			if r[0] == Omni.String() {
				continue // the paper plots latency for Narrow and Wide only
			}
			fmt.Fprintf(w, "%-8s %8.1f %8.1f %8.1f %8.0f %6.0f(%.0f)\n", r[0], r[4], r[5], r[6], r[7], r[8], r[9])
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Fig. 2a (right) — Search success rate (%)")
		fmt.Fprintf(w, "%-8s %10s %18s\n", "Config", "success", "95% CI")
		for i := 0; i < t.rows(); i++ {
			fmt.Fprintf(w, "%-8s %9.1f%% %8.1f%%–%.1f%%\n", t.row(i)[:4]...)
		}
	},
	CSV: func(w io.Writer, cells []campaign.CellResult) {
		fmt.Fprintln(w, "config,dwells")
		for i := range cells {
			d := cells[i].Sample("dwells")
			for _, v := range d.Values() {
				fmt.Fprintf(w, "%s,%g\n", cells[i].Cell.Get("config"), v)
			}
		}
	},
}

// SearchTrial runs a single Fig. 2a search procedure under the
// paper's human-walk scenario and reports whether it succeeded and
// how many receive-beam dwells it took.
func SearchTrial(cfg BeamConfig, seed int64) (success bool, dwells int) {
	b := EdgeBuilder(seed)
	b.UEBook = cfg.Book()
	b.Mob = MobilityFor(Walk, seed)
	return searchTrialWith(b)
}

// searchTrialWith runs a search procedure on an already-configured
// scenario builder (shared by SearchTrial, the pattern ablation and
// the codebook sweep).
func searchTrialWith(b *world.Builder) (success bool, dwells int) {
	w := b.Build()
	budget := scanBudget * b.UEBook.Size()
	// The dwell clock runs in sweep periods; the search itself starts
	// after the first serving burst, so pad the wall-clock deadline.
	deadline := sim.Time(budget)*w.Tracker.Cfg.SweepPeriod + 100*sim.Millisecond

	var foundAt sim.Time = sim.Never
	var lostAfter sim.Time = sim.Never
	w.Tracker.SetEventHook(func(e core.Event) {
		switch e.Type {
		case core.EvNeighborFound:
			if foundAt == sim.Never {
				foundAt = e.At
				dwells = int(e.Value)
			}
		case core.EvNeighborLost:
			if foundAt != sim.Never && lostAfter == sim.Never {
				lostAfter = e.At
			}
		}
	})

	// Run until the verification window after discovery, or the
	// deadline.
	for w.Engine.Now() < deadline+verifyWindow {
		w.Run(w.Engine.Now() + 50*sim.Millisecond)
		if foundAt != sim.Never && w.Engine.Now() >= foundAt+verifyWindow {
			break
		}
	}
	if foundAt == sim.Never || dwells > budget {
		return false, 0
	}
	// Verification: the beam must not be lost within the window —
	// a sidelobe ghost "discovery" dies immediately.
	if lostAfter != sim.Never && lostAfter-foundAt < verifyWindow {
		return false, 0
	}
	return true, dwells
}
