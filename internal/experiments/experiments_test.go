package experiments

import (
	"bytes"
	"strings"
	"testing"

	"silenttracker/internal/campaign"
	"silenttracker/internal/sim"
)

// runCells runs the named registry experiment at p without a cache,
// on the given number of workers. values, when given, narrows the
// spec's first axis.
func runCells(t testing.TB, name string, workers int, p CampaignParams, values ...string) (CampaignDef, []campaign.CellResult) {
	t.Helper()
	def, ok := CampaignNamed(name)
	if !ok {
		t.Fatalf("no registered experiment %q", name)
	}
	spec := def.Build(p)
	if len(values) > 0 {
		spec.Axes[0].Values = values
	}
	cells, _ := (&campaign.Engine{Workers: workers}).Run(spec)
	return def, cells
}

// runTable is runCells folded into the experiment's Table.
func runTable(t testing.TB, name string, p CampaignParams, values ...string) Table {
	t.Helper()
	def, cells := runCells(t, name, 0, p, values...)
	return def.Table(cells)
}

// col returns the named column's values, failing the test if the
// Table has no such value column.
func col(t testing.TB, tb Table, name string) []float64 {
	t.Helper()
	for _, c := range tb.Columns {
		if c.Name == name && c.Labels == nil {
			return c.Values
		}
	}
	t.Fatalf("table has no value column %q", name)
	return nil
}

// rowOf returns the index of the row whose first (label) column is
// label.
func rowOf(t testing.TB, tb Table, label string) int {
	t.Helper()
	for i, l := range tb.Columns[0].Labels {
		if l == label {
			return i
		}
	}
	t.Fatalf("table has no row %q", label)
	return -1
}

func TestFig2aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial experiment")
	}
	tb := runTable(t, "fig2a", CampaignParams{Trials: 30})
	if tb.rows() != 3 {
		t.Fatalf("%d rows", tb.rows())
	}
	narrow, wide, omni := rowOf(t, tb, "Narrow"), rowOf(t, tb, "Wide"), rowOf(t, tb, "Omni")
	succ, dwells := col(t, tb, "success"), col(t, tb, "dwells_mean")
	// The paper's headline: narrow beams succeed far more often than
	// omni, despite searching longer.
	if succ[narrow] <= succ[omni] {
		t.Errorf("narrow success %.1f%% should exceed omni %.1f%%", succ[narrow], succ[omni])
	}
	if succ[narrow] < 80 {
		t.Errorf("narrow success %.1f%% suspiciously low", succ[narrow])
	}
	if succ[omni] > 80 {
		t.Errorf("omni success %.1f%% suspiciously high", succ[omni])
	}
	// Narrow searches take more dwells than wide (more beams to scan).
	if dwells[narrow] <= dwells[wide] {
		t.Errorf("narrow dwells %.1f should exceed wide %.1f", dwells[narrow], dwells[wide])
	}
}

func TestFig2cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial experiment")
	}
	const trials = 15
	tb := runTable(t, "fig2c", CampaignParams{Trials: trials})
	if tb.rows() != 3 {
		t.Fatalf("%d rows", tb.rows())
	}
	done, p50, soft := col(t, tb, "done"), col(t, tb, "latency_p50"), col(t, tb, "soft")
	for i, sc := range tb.Columns[0].Labels {
		if done[i] < 60 {
			t.Errorf("%s completion rate %.1f%% too low", sc, done[i])
		}
		completed := done[i] * trials / 100
		if completed > 0 && (p50[i] < 50 || p50[i] > 5000) {
			t.Errorf("%s median latency %.0f ms implausible", sc, p50[i])
		}
		// Nearly all completed handovers must be soft — that is the
		// protocol's purpose.
		if completed > 0 && soft[i]/completed < 0.7 {
			t.Errorf("%s soft fraction %.2f", sc, soft[i]/completed)
		}
		// The CDF grid is monotone and scaled by the completion rate.
		var cdf []float64
		for j := 0; j < cdfPoints; j++ {
			cdf = append(cdf, tb.Columns[fig2cSummary+j].Values[i])
		}
		for j := 1; j < len(cdf); j++ {
			if cdf[j] < cdf[j-1] {
				t.Fatalf("%s CDF not monotone: %v", sc, cdf)
			}
		}
		if last := cdf[len(cdf)-1]; last > done[i]/100+1e-9 {
			t.Errorf("%s CDF exceeds completion rate: %v", sc, last)
		}
	}
}

func TestMobilityAlignmentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial experiment")
	}
	tb := runTable(t, "mobility", CampaignParams{Trials: 8})
	aligned, done := col(t, tb, "aligned"), col(t, tb, "ho_done")
	for i, sc := range tb.Columns[0].Labels {
		if aligned[i] < 60 {
			t.Errorf("%s aligned fraction %.1f%% too low — the paper's claim fails", sc, aligned[i])
		}
		if done[i] < 60 {
			t.Errorf("%s handover rate %.1f%%", sc, done[i])
		}
	}
}

func TestBaselineOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial experiment")
	}
	tb := runTable(t, "baseline", CampaignParams{Trials: 8})
	st, re := rowOf(t, tb, SilentTracker.String()), rowOf(t, tb, Reactive.String())
	done, hard, intr := col(t, tb, "ho_done"), col(t, tb, "hard"), col(t, tb, "interrupt_mean")
	// Reactive's handovers are hard; Silent Tracker's mostly soft.
	if done[re] > 0 && hard[re] < 80 {
		t.Errorf("reactive hard rate %.1f%%, expected ~100%%", hard[re])
	}
	if hard[st] > 40 {
		t.Errorf("silent tracker hard rate %.1f%%, expected low", hard[st])
	}
	// Silent tracker suffers less interruption than reactive.
	if intr[st] >= intr[re] {
		t.Errorf("interruption: ST %.0f ms should beat reactive %.0f ms", intr[st], intr[re])
	}
}

func TestScenarioHelpers(t *testing.T) {
	if Walk.String() != "Walk" || Rotation.String() != "Rotation" || Vehicular.String() != "Vehicular" {
		t.Error("scenario names")
	}
	if Narrow.String() != "Narrow" || Wide.String() != "Wide" || Omni.String() != "Omni" {
		t.Error("beam config names")
	}
	if Narrow.Book().Size() != 18 || Wide.Book().Size() != 6 || Omni.Book().Size() != 1 {
		t.Error("codebook sizes")
	}
	if HorizonFor(Vehicular) >= HorizonFor(Walk) {
		t.Error("vehicular horizon should be shortest")
	}
}

func TestMobilityForDiffersAcrossSeeds(t *testing.T) {
	a := MobilityFor(Walk, 1).PoseAt(0)
	b := MobilityFor(Walk, 2).PoseAt(0)
	if a.Pos == b.Pos {
		t.Error("trial starts identical across seeds")
	}
	r := MobilityFor(Rotation, 3).PoseAt(0)
	if r.Pos.X < 11 || r.Pos.X > 14 {
		t.Errorf("rotation position %v outside the boundary band", r.Pos)
	}
}

// render writes the def's text table and, when it has one, its CSV.
func render(def CampaignDef, cells []campaign.CellResult) string {
	var buf bytes.Buffer
	tb := def.Table(cells)
	def.Text(&buf, &tb)
	if def.CSV != nil {
		def.CSV(&buf, cells)
	}
	return buf.String()
}

func TestTableWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial experiment")
	}
	out := render(runCells(t, "fig2a", 0, CampaignParams{Trials: 5}))
	if !strings.Contains(out, "Narrow") || !strings.Contains(out, "Omni") {
		t.Errorf("fig2a table incomplete:\n%s", out)
	}
	if !strings.Contains(out, "\nconfig,dwells\n") {
		t.Error("fig2a CSV header")
	}
	out = render(runCells(t, "fig2c", 0, CampaignParams{Trials: 4}))
	if !strings.Contains(out, "Rotation") {
		t.Error("fig2c table incomplete")
	}
	if !strings.Contains(out, "\nscenario,latency_ms,interrupt_ms\n") {
		t.Error("fig2c CSV header")
	}
}

// TestFig2cCSVPairsEachTrial: each CSV line carries one completed
// trial's own latency and interruption, ordered by latency — the two
// columns are never sorted apart and re-paired by rank.
func TestFig2cCSVPairsEachTrial(t *testing.T) {
	cells := []campaign.CellResult{{
		Cell: campaign.Cell{{Axis: "scenario", Value: "Walk"}},
		Trials: []campaign.Metrics{
			{"completed": {1}, "latency_ms": {200}, "interrupt_ms": {0}},
			{"completed": {1}, "latency_ms": {100}, "interrupt_ms": {50}},
			{"completed": {0}},
		},
	}}
	var buf bytes.Buffer
	fig2cDef.CSV(&buf, cells)
	want := "scenario,latency_ms,interrupt_ms\nWalk,100,50\nWalk,200,0\n"
	if buf.String() != want {
		t.Errorf("fig2c CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestTableSchema pins every experiment's Table columns — name, unit,
// and position — to the public schema consumers read (quickstart
// reads three of fig2a's). fig2c additionally carries its CDF grid.
func TestTableSchema(t *testing.T) {
	want := map[string][]string{
		"fig2a":      {"config:", "success:%", "ci_lo:%", "ci_hi:%", "dwells_mean:dwells", "dwells_p50:dwells", "dwells_p90:dwells", "dwells_max:dwells", "trials:", "trials_ok:"},
		"fig2c":      {"scenario:", "latency_p10:ms", "latency_p50:ms", "latency_p90:ms", "latency_max:ms", "done:%", "soft:", "dwells_mean:dwells", "cdf_200ms:", "cdf_400ms:", "cdf_600ms:", "cdf_800ms:", "cdf_1000ms:", "cdf_1200ms:", "cdf_1400ms:", "cdf_1600ms:", "cdf_1800ms:", "cdf_2000ms:"},
		"mobility":   {"scenario:", "aligned:%", "misalign_p50:deg", "misalign_p90:deg", "ho_done:%", "hard:%"},
		"threshold":  {"margin:dB", "handovers_mean:", "pingpongs_mean:", "interrupt_mean:ms", "loss:%", "no_handover:%"},
		"hysteresis": {"trigger:dB", "switches_mean:", "losses_mean:", "misalign_mean:deg", "ho_done:%"},
		"baseline":   {"strategy:", "ho_done:%", "hard:%", "latency_p50:ms", "interrupt_mean:ms", "recovery_mean:ms", "loss:%", "outage_p90:ms"},
		"patterns":   {"model:", "success:%", "dwells_mean:dwells", "ho_done:%", "latency_p50:ms"},
		"codebook":   {"beams:", "hpbw:deg", "success:%", "dwells_p50:dwells", "latency_p50:ms", "latency_max:ms", "full_scan:ms"},
		"urban":      {"ues:", "ho_done:%", "ho_per_ue_min:1/min", "ho_p90:", "hard_share:%", "nbr_occupancy:%"},
		"highway":    {"speed:m/s", "hold_p50:ms", "hold_p90:ms", "aligned:%", "ho_done:%", "hard_share:%"},
		"hotspot":    {"density:", "track_ok:%", "losses_per_ue:", "ho_done:%", "hard_share:%"},
	}
	for _, def := range Campaigns() {
		var got []string
		for _, c := range def.Table(nil).Columns {
			got = append(got, c.Name+":"+c.Unit)
		}
		if strings.Join(got, " ") != strings.Join(want[def.Name], " ") {
			t.Errorf("%s table columns\n got %v\nwant %v", def.Name, got, want[def.Name])
		}
	}
}

func TestEdgeWorldConstruction(t *testing.T) {
	w := EdgeWorld(Walk, Narrow, 42)
	if len(w.Cells) != 2 {
		t.Fatalf("%d cells", len(w.Cells))
	}
	if w.Tracker.ServingCell() != 1 {
		t.Error("serving cell")
	}
	// Burst offsets must not collide (staggered by construction).
	if w.Cells[1].Sched.Overlaps(w.Cells[2].Sched) {
		t.Error("cell bursts overlap; measurement interleaving impossible")
	}
	w.Run(100 * sim.Millisecond)
	if w.Engine.Fired() == 0 {
		t.Error("world inert")
	}
}

func TestPatternModelsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial experiment")
	}
	tb := runTable(t, "patterns", CampaignParams{Trials: 10})
	if tb.rows() != 2 {
		t.Fatalf("%d rows", tb.rows())
	}
	succ, done := col(t, tb, "success"), col(t, tb, "ho_done")
	for i, model := range tb.Columns[0].Labels {
		if succ[i] < 70 {
			t.Errorf("%s search success %.1f%%: protocol should not depend on the pattern model", model, succ[i])
		}
		if done[i] < 70 {
			t.Errorf("%s handover rate %.1f%%", model, done[i])
		}
	}
}

func TestCodebookSweepScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial experiment")
	}
	def, cells := runCells(t, "codebook", 0, CampaignParams{Trials: 12}, "6", "18", "64")
	tb := def.Table(cells)
	if tb.rows() != 3 {
		t.Fatalf("%d rows", tb.rows())
	}
	// Latency (in dwells) must grow with codebook size.
	d50 := col(t, tb, "dwells_p50")
	if !(d50[0] < d50[1] && d50[1] < d50[2]) {
		t.Errorf("dwell medians not increasing: %v", d50)
	}
	// The 64-beam worst-case full scan is the paper's 1.28 s.
	if full := col(t, tb, "full_scan")[2]; full != 1280 {
		t.Errorf("64-beam full scan = %v ms, want 1280", full)
	}
	// Search under mobility gets less reliable as beams narrow.
	if succ := col(t, tb, "success"); succ[2] > succ[0]+1e-9 && succ[2] == 100 {
		t.Errorf("64-beam search should not beat 6-beam under mobility")
	}
	if !strings.Contains(render(def, cells), "1280") {
		t.Error("codebook table missing the 1.28 s row")
	}
	if !strings.Contains(render(runCells(t, "patterns", 0, CampaignParams{Trials: 2, Seed: 1})), "ULA") {
		t.Error("patterns table missing ULA row")
	}
}
