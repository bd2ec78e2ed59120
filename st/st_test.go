package st_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"silenttracker/st"
)

func TestUnknownExperiment(t *testing.T) {
	client, err := st.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Session("no-such-experiment"); !errors.Is(err, st.ErrUnknownExperiment) {
		t.Fatalf("Session: err = %v, want ErrUnknownExperiment", err)
	}
	if _, err := client.Run(context.Background(), "nope"); !errors.Is(err, st.ErrUnknownExperiment) {
		t.Fatalf("Run: err = %v, want ErrUnknownExperiment", err)
	}
	if _, err := client.Describe("nope"); !errors.Is(err, st.ErrUnknownExperiment) {
		t.Fatalf("Describe: err = %v, want ErrUnknownExperiment", err)
	}
}

func TestAliasResolvesToCanonicalName(t *testing.T) {
	client, err := st.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	s, err := client.Session("ablation-threshold")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "threshold" {
		t.Errorf("alias session name = %q, want threshold", s.Name())
	}
}

func TestExperimentsListing(t *testing.T) {
	client, err := st.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	infos := client.Experiments()
	if len(infos) != 11 {
		t.Fatalf("%d experiments registered, want 11", len(infos))
	}
	byName := map[string]st.Info{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	th := byName["threshold"]
	if th.Alias != "ablation-threshold" || th.Title == "" || th.Units != th.Cells*th.Trials {
		t.Errorf("threshold info inconsistent: %+v", th)
	}
	if !byName["fig2a"].HasCSV || byName["urban"].HasCSV {
		t.Error("CSV availability flags wrong")
	}

	// Quick listing shrinks the units, never grows them.
	quick, err := st.NewClient(st.WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range quick.Experiments() {
		if in.Units >= byName[in.Name].Units {
			t.Errorf("%s: quick units %d not below full %d", in.Name, in.Units, byName[in.Name].Units)
		}
	}
}

func TestCacheRefusedDirSurfacesAtNewClient(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "data.txt"), []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.NewClient(st.WithCacheDir(dir)); err == nil {
		t.Fatal("NewClient adopted a foreign directory as a cache")
	}
}

// TestRunCancelled: a pre-cancelled context yields a *CancelledError
// that unwraps to context.Canceled, with no folded cells.
func TestRunCancelled(t *testing.T) {
	client, err := st.NewClient(st.WithQuick(), st.WithTrials(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := client.Run(ctx, "fig2a")
	if res != nil {
		t.Fatal("cancelled run returned a Result")
	}
	var ce *st.CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *CancelledError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not unwrap to context.Canceled", err)
	}
	if !strings.Contains(ce.Error(), "units=") {
		t.Errorf("CancelledError message %q does not report stats", ce.Error())
	}
}

// TestCancelledRunPersistsCacheUnits: cancel mid-run, then finish warm
// — the rerun computes only the remainder and renders the same bytes
// as an uninterrupted run.
func TestCancelledRunPersistsCacheUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	cacheDir := filepath.Join(t.TempDir(), "cache")
	client, err := st.NewClient(st.WithQuick(), st.WithCacheDir(cacheDir), st.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	_, err = client.Run(ctx, "fig2a", st.WithProgress(func(ev st.Event) {
		if u, ok := ev.(st.UnitDone); ok && u.Done >= 5 {
			cancel()
		}
		_ = done.Add(1)
	}))
	var ce *st.CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if ce.Stats.Computed == 0 || ce.Stats.Computed >= ce.Stats.Units {
		t.Fatalf("cancelled stats %v, want a non-empty strict subset of units computed", ce.Stats)
	}

	warm, err := client.Run(context.Background(), "fig2a")
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Cached == 0 {
		t.Error("warm rerun found no cached units from the cancelled run")
	}
	if warm.Stats.Computed != warm.Stats.Units-warm.Stats.Cached {
		t.Errorf("warm rerun stats inconsistent: %v", warm.Stats)
	}

	// Byte-identity with an uninterrupted cacheless run.
	ref, err := client.Run(context.Background(), "fig2a", st.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if err := st.RenderText(&a, warm); err != nil {
		t.Fatal(err)
	}
	if err := st.RenderText(&b, ref); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("warm-after-cancel output differs from a clean run")
	}
}

// TestProgressStream: the event stream reports every unit exactly
// once, cells in fold order, and SpecDone last with the run's stats.
func TestProgressStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	client, err := st.NewClient(st.WithQuick(), st.WithTrials(2))
	if err != nil {
		t.Fatal(err)
	}
	var events []st.Event
	res, err := client.Run(context.Background(), "fig2a",
		st.WithProgress(func(ev st.Event) { events = append(events, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	units, cells := 0, 0
	sawSpecDone := false
	for _, ev := range events {
		switch ev := ev.(type) {
		case st.UnitDone:
			units++
			if ev.Units != res.Stats.Units || ev.Campaign != "fig2a" {
				t.Fatalf("UnitDone %+v", ev)
			}
		case st.CellDone:
			if ev.Index != cells {
				t.Fatalf("CellDone out of order: %+v", ev)
			}
			cells++
		case st.SpecDone:
			sawSpecDone = true
			if !reflect.DeepEqual(ev.Stats, res.Stats) {
				t.Fatalf("SpecDone stats %+v, run stats %+v", ev.Stats, res.Stats)
			}
		}
	}
	if units != res.Stats.Units || cells != len(res.Cells) || !sawSpecDone {
		t.Fatalf("saw %d units, %d cells, specDone=%v", units, cells, sawSpecDone)
	}
	if _, ok := events[len(events)-1].(st.SpecDone); !ok {
		t.Error("SpecDone is not the final event")
	}
}

func TestValueTypes(t *testing.T) {
	c := st.Cell{{Axis: "scenario", Value: "Walk"}, {Axis: "speed", Value: "5"}}
	if c.Get("scenario") != "Walk" || c.Get("absent") != "" {
		t.Error("Cell.Get")
	}
	if c.String() != "scenario=Walk,speed=5" {
		t.Errorf("Cell.String = %q", c.String())
	}

	tbl := st.Table{Columns: []st.Column{
		{Name: "name", Labels: []string{"a", "b"}},
		{Name: "v", Unit: "ms", Values: []float64{1, 2}},
	}}
	if tbl.Rows() != 2 {
		t.Errorf("Rows = %d", tbl.Rows())
	}
	if _, ok := tbl.Column("nope"); ok {
		t.Error("Column found a column that does not exist")
	}
	var empty st.Table
	if empty.Rows() != 0 {
		t.Error("empty table rows")
	}

	infos := []st.Info{{Name: "threshold", Alias: "ablation-threshold"}, {Name: "fig2a"}}
	if infos[0].BenchName() != "ablation-threshold" || infos[1].BenchName() != "fig2a" {
		t.Error("BenchName")
	}
}

func TestSeedOverrideChangesDescription(t *testing.T) {
	client, err := st.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	def, err := client.Describe("fig2a")
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := client.Describe("fig2a", st.WithSeed(4242))
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Seed != 4242 || seeded.Seed == def.Seed {
		t.Errorf("WithSeed: got base %d (default %d)", seeded.Seed, def.Seed)
	}
	if seeded.Cells[0].Key == def.Cells[0].Key {
		t.Error("seed change did not change the cache keys")
	}
}

func TestCleanCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	if _, err := st.NewClient(st.WithCacheDir(dir)); err != nil {
		t.Fatal(err)
	}
	if err := st.CleanCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("cache dir survived CleanCache")
	}
	// A directory the cache does not own is refused.
	foreign := t.TempDir()
	if err := os.WriteFile(filepath.Join(foreign, "data.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.CleanCache(foreign); err == nil {
		t.Error("CleanCache removed a foreign directory")
	}
}

// TestRenderersRejectForeignResults: a Result naming no registered
// experiment (e.g. deserialised from a newer writer) renders to a
// structured error, not a panic.
func TestRenderersRejectForeignResults(t *testing.T) {
	r := &st.Result{Campaign: "from-the-future"}
	var buf strings.Builder
	for name, render := range map[string]func() error{
		"RenderText":         func() error { return st.RenderText(&buf, r) },
		"RenderCampaignText": func() error { return st.RenderCampaignText(&buf, r) },
		"RenderCSV":          func() error { return st.RenderCSV(&buf, r) },
	} {
		if err := render(); !errors.Is(err, st.ErrUnknownExperiment) {
			t.Errorf("%s: err = %v, want ErrUnknownExperiment", name, err)
		}
	}
	if r.HasCSV() {
		t.Error("foreign result claims a CSV form")
	}
	if buf.Len() != 0 {
		t.Errorf("failed renderers wrote output: %q", buf.String())
	}
}

// TestRenderCSVUnsupported: experiments without a raw-sample form
// return an error rather than guessing a format.
// TestRenderTextRejectsMismatchedTable: the text renderers format
// Result.Table alone, so a Result whose Table lacks its experiment's
// columns (or has ragged ones) renders to an error, not a panic.
func TestRenderTextRejectsMismatchedTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment")
	}
	ragged := *quickResult(t, "fig2a")
	ragged.Table.Columns = append([]st.Column(nil), ragged.Table.Columns...)
	ragged.Table.Columns[3].Values = ragged.Table.Columns[3].Values[:1]
	for _, r := range []*st.Result{{Campaign: "fig2c"}, &ragged} {
		var buf strings.Builder
		if err := st.RenderText(&buf, r); err == nil {
			t.Errorf("RenderText(%s, %d columns) succeeded", r.Campaign, len(r.Table.Columns))
		}
		if err := st.RenderCampaignText(&buf, r); err == nil {
			t.Errorf("RenderCampaignText(%s, %d columns) succeeded", r.Campaign, len(r.Table.Columns))
		}
		if buf.Len() != 0 {
			t.Errorf("failed renderers wrote output: %q", buf.String())
		}
	}
}

func TestRenderCSVUnsupported(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	client, err := st.NewClient(st.WithQuick(), st.WithTrials(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Run(context.Background(), "mobility")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := st.RenderCSV(&buf, res); err == nil || !strings.Contains(err.Error(), "no CSV form") {
		t.Errorf("RenderCSV on mobility: err = %v", err)
	}
}

// TestRenderDescriptionShortKey: a Description assembled from foreign
// JSON may carry short or empty cache keys; rendering must not panic.
func TestRenderDescriptionShortKey(t *testing.T) {
	d := &st.Description{
		Name:  "foreign",
		Cells: []st.CellKey{{Cell: st.Cell{{Axis: "a", Value: "x"}}, Key: ""}},
	}
	var buf strings.Builder
	if err := st.RenderDescription(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a=x") {
		t.Errorf("short-key description rendered %q", buf.String())
	}
}

// TestConcurrentRunsShareProgressCallback: WithProgress promises the
// callback needs no locking; that must hold even when concurrent
// sessions of one client share it (run under -race).
func TestConcurrentRunsShareProgressCallback(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	var events []st.Event // deliberately unsynchronised, per the contract
	client, err := st.NewClient(st.WithQuick(), st.WithTrials(2),
		st.WithProgress(func(ev st.Event) { events = append(events, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, name := range []string{"fig2a", "patterns"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Run(context.Background(), name); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	wg.Wait()
	// 3 cells × 2 trials + PhaseDone×3 + SpecDone + CellDone×3 for
	// fig2a, 2 cells × 2 trials + PhaseDone×3 + SpecDone + CellDone×2
	// for patterns.
	if len(events) != (6+3+3+1)+(4+2+3+1) {
		t.Errorf("saw %d events", len(events))
	}
}

// TestSessionCacheOverride: a session-level cache dir opens its own
// cache without touching the client's.
func TestSessionCacheOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	base := t.TempDir()
	clientDir := filepath.Join(base, "client-cache")
	sessionDir := filepath.Join(base, "session-cache")
	client, err := st.NewClient(st.WithQuick(), st.WithTrials(1), st.WithCacheDir(clientDir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(context.Background(), "fig2a", st.WithCacheDir(sessionDir)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sessionDir); err != nil {
		t.Error("session cache dir was not created")
	}
	entries, err := os.ReadDir(clientDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Error("client cache dir gained entries from a session that overrode it")
		}
	}
}
