package st_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"silenttracker/st"
)

// goldenNames lists every registered experiment with its stbench-era
// alias; the testdata/golden files were captured from the pre-API
// CLIs, so these tests pin the renderers to the original bytes.
var goldenNames = []struct{ name, alias string }{
	{"fig2a", "fig2a"},
	{"fig2c", "fig2c"},
	{"mobility", "mobility"},
	{"threshold", "ablation-threshold"},
	{"hysteresis", "ablation-hysteresis"},
	{"baseline", "baseline"},
	{"patterns", "ablation-pattern"},
	{"codebook", "ablation-codebook"},
	{"urban", "urban"},
	{"highway", "highway"},
	{"hotspot", "hotspot"},
}

// quickResults runs every experiment once (quick, default seeds) and
// memoises the Results so each golden test reuses the same run.
var quickResults = struct {
	sync.Mutex
	m map[string]*st.Result
}{m: map[string]*st.Result{}}

func quickResult(t *testing.T, name string) *st.Result {
	t.Helper()
	quickResults.Lock()
	defer quickResults.Unlock()
	if r, ok := quickResults.m[name]; ok {
		return r
	}
	client, err := st.NewClient(st.WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	r, err := client.Run(context.Background(), name)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	quickResults.m[name] = r
	return r
}

func golden(t *testing.T, file string) string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", "golden", file))
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func diffBytes(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s is not byte-identical to the pre-API CLI output:\n--- got ---\n%s--- want ---\n%s", what, got, want)
	}
}

// TestRenderTextGolden: RenderText(Result) must reproduce the pre-API
// `stbench -exp <name> -quick` stdout byte for byte, for all 11
// experiments.
func TestRenderTextGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, n := range goldenNames {
		t.Run(n.name, func(t *testing.T) {
			r := quickResult(t, n.name)
			var buf bytes.Buffer
			if err := st.RenderText(&buf, r); err != nil {
				t.Fatal(err)
			}
			diffBytes(t, "RenderText", buf.String(), golden(t, "bench_"+n.alias+".txt"))
		})
	}
}

// TestRenderCampaignTextGolden: RenderCampaignText must reproduce the
// pre-API `stcampaign run -quick <name>` stdout.
func TestRenderCampaignTextGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, n := range goldenNames {
		t.Run(n.name, func(t *testing.T) {
			r := quickResult(t, n.name)
			var buf bytes.Buffer
			if err := st.RenderCampaignText(&buf, r); err != nil {
				t.Fatal(err)
			}
			diffBytes(t, "RenderCampaignText", buf.String(), golden(t, "campaign_"+n.name+".txt"))
		})
	}
}

// TestRenderJSONGolden: RenderJSON must reproduce the stcampaign -json
// wire format byte for byte.
func TestRenderJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, n := range goldenNames {
		t.Run(n.name, func(t *testing.T) {
			r := quickResult(t, n.name)
			var buf bytes.Buffer
			if err := st.RenderJSON(&buf, r); err != nil {
				t.Fatal(err)
			}
			diffBytes(t, "RenderJSON", buf.String(), golden(t, "campaign_"+n.name+".json"))
		})
	}
}

// TestRenderCSVGolden pins the raw-sample CSV form for the two
// experiments that have one.
func TestRenderCSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	for _, name := range []string{"fig2a", "fig2c"} {
		t.Run(name, func(t *testing.T) {
			r := quickResult(t, name)
			if !r.HasCSV() {
				t.Fatalf("%s should have a CSV form", name)
			}
			var buf bytes.Buffer
			if err := st.RenderCSV(&buf, r); err != nil {
				t.Fatal(err)
			}
			diffBytes(t, "RenderCSV", buf.String(), golden(t, "bench_"+name+"_csv.txt"))
		})
	}
	if quickResult(t, "mobility").HasCSV() {
		t.Error("mobility should have no CSV form")
	}
}

// TestResultJSONRoundTrip: a Result survives JSON marshalling without
// loss, and the round-tripped value still renders the original bytes —
// rendering is a pure function of the (serialisable) value.
func TestResultJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	for _, name := range []string{"fig2a", "mobility", "hotspot"} {
		t.Run(name, func(t *testing.T) {
			r := quickResult(t, name)
			buf, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			var back st.Result
			if err := json.Unmarshal(buf, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*r, back) {
				t.Errorf("Result did not round-trip through JSON:\n%+v\nvs\n%+v", *r, back)
			}
			var orig, reread bytes.Buffer
			if err := st.RenderText(&orig, r); err != nil {
				t.Fatal(err)
			}
			if err := st.RenderText(&reread, &back); err != nil {
				t.Fatal(err)
			}
			diffBytes(t, "RenderText after JSON round-trip", reread.String(), orig.String())
		})
	}
}

// TestRenderListGolden and TestRenderDescriptionGolden pin the listing
// and describe forms to the pre-API stcampaign bytes. The describe
// goldens pin every experiment's cache identity — epoch, config, seed
// schedule, axes, and unit keys — at full and quick trial counts.
func TestRenderListGolden(t *testing.T) {
	client, err := st.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.RenderList(&buf, client.Experiments()); err != nil {
		t.Fatal(err)
	}
	diffBytes(t, "RenderList", buf.String(), golden(t, "list.txt"))
}

func TestRenderDescriptionGolden(t *testing.T) {
	client, err := st.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range goldenNames {
		name := n.name
		for _, quick := range []bool{false, true} {
			d, err := client.Describe(name, func() st.Option {
				if quick {
					return st.WithQuick()
				}
				return st.WithFull()
			}())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := st.RenderDescription(&buf, d); err != nil {
				t.Fatal(err)
			}
			file := "describe_" + name + ".txt"
			if quick {
				file = "describe_quick_" + name + ".txt"
			}
			diffBytes(t, "RenderDescription "+file, buf.String(), golden(t, file))
		}
	}
}
