package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A one-byte change anywhere in an output must fail the byte check.
func TestSameBytesCatchesOneByte(t *testing.T) {
	want := []byte("\n== campaign fig2a ==\n\nConfig  mean\nNarrow   8.0\n")
	if err := sameBytes(append([]byte(nil), want...), want); err != nil {
		t.Fatalf("identical outputs: %v", err)
	}
	for i := range want {
		got := append([]byte(nil), want...)
		got[i] ^= 1
		err := sameBytes(got, want)
		if err == nil {
			t.Fatalf("flipping byte %d went unnoticed", i)
		}
		if !strings.Contains(err.Error(), "at byte ") {
			t.Fatalf("error does not locate the change: %v", err)
		}
	}
	if sameBytes(want[:len(want)-1], want) == nil {
		t.Fatal("a dropped last byte went unnoticed")
	}
}

// The golden check passes on the recorded references and fails when
// one byte of one reference changes.
func TestGoldenCheckCatchesOneByte(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	src := filepath.Join("..", "st", "testdata", "golden")
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := goldenCheck(ctx, dir); err != nil {
		t.Fatalf("unchanged references: %v", err)
	}

	path := filepath.Join(dir, "campaign_hysteresis.txt")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 1
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	err = goldenCheck(ctx, dir)
	if err == nil || !strings.Contains(err.Error(), "hysteresis") {
		t.Fatalf("a one-byte change to the hysteresis reference: got %v", err)
	}
}

// splitCampaigns must give back each section byte for byte.
func TestSplitCampaigns(t *testing.T) {
	a := "\n== campaign fig2a ==\n\nrow 1\n\nrow 2\n"
	b := "\n== campaign codebook ==\n\nrow 3\n"
	got, err := splitCampaigns([]byte(a + b))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got["fig2a"]) != a || string(got["codebook"]) != b {
		t.Fatalf("got %q", got)
	}
	if _, err := splitCampaigns([]byte("stray\n" + a)); err == nil {
		t.Fatal("output without a leading banner was accepted")
	}
}

// BENCHMARK.json and perfbench must name the same metrics with the
// same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, code map[string]string) {
		if len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(listed), len(code))
		}
		for _, m := range listed {
			if unit, ok := code[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s (%s) is not what perfbench reports (%q)", kind, m.Name, m.Unit, unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// Request seeds depend only on the workload seed and the request's
// coordinates, and are valid non-default experiment seeds.
func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 50; seed++ {
		for i := int64(0); i < 50; i++ {
			s := deriveSeed(seed, 3, i)
			if s != deriveSeed(seed, 3, i) || s <= 0 || s >= 1<<31 {
				t.Fatalf("deriveSeed(%d, 3, %d) = %d", seed, i, s)
			}
			seen[s] = true
		}
	}
	if len(seen) < 2490 {
		t.Fatalf("only %d distinct seeds of 2500", len(seen))
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"silenttracker/internal/sim.(*Loop).Run":         "sim",
		"silenttracker/internal/channel.(*Link).Measure": "channel",
		"math.Exp":         "mathx",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"encoding/json.(*decodeState).object":     "encoding_json",
		"crypto/sha256.block":                     "other",
		"silenttracker/internal/runner.MapCtxObserved[go.shape.struct { m silenttracker/internal/campaign.Metrics }].func1": "runner",
		"silenttracker/st.(*Session).Run": "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
