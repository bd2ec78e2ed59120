package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// canaryFile pins one full-fidelity unit per registered spec: lines of
// "name epoch digest", where digest is the SHA-256 of the unit's
// Metrics JSON (the canonical store-entry form).
const canaryFile = "testdata/canaries.txt"

type canary struct{ epoch, digest string }

func readCanaries(t *testing.T) map[string]canary {
	t.Helper()
	f, err := os.Open(canaryFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]canary)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q, want \"name epoch digest\"", canaryFile, sc.Text())
		}
		out[fields[0]] = canary{epoch: fields[1], digest: fields[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// canaryDigest runs the spec's canary unit — first cell, trial 0,
// default seed, full fidelity — and digests its canonical entry bytes.
func canaryDigest(t *testing.T, def CampaignDef) string {
	t.Helper()
	spec := def.Spec()
	buf, err := json.Marshal(spec.Trial(spec.Cells()[0], spec.TrialSeed(0)))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestDriftCanaries is the epoch drift gate. Every unit a spec caches
// is keyed by its Epoch, so a trial body whose output changes while
// the Epoch stays put would be silently served stale results from any
// existing cache. One full-precision unit per spec catches that where
// the quick goldens' rounded digits may not. The digests pin exact
// float bits, which math's assembly kernels make architecture-specific;
// they were captured on amd64.
func TestDriftCanaries(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("canary digests are amd64 float bits")
	}
	want := readCanaries(t)
	defs := Campaigns()
	if len(want) != len(defs) {
		t.Errorf("%s has %d canaries for %d registered specs", canaryFile, len(want), len(defs))
	}
	for _, def := range defs {
		t.Run(def.Name, func(t *testing.T) {
			t.Parallel()
			epoch := def.Spec().Epoch
			got := canaryDigest(t, def)
			line := fmt.Sprintf("%s %s %s", def.Name, epoch, got)
			w, ok := want[def.Name]
			switch {
			case !ok:
				t.Errorf("no canary for %s; add the line %q to %s", def.Name, line, canaryFile)
			case w.epoch != epoch:
				t.Errorf("%s: Epoch is %q but the canary was captured at %q; re-capture it as %q",
					def.Name, epoch, w.epoch, line)
			case w.digest != got:
				t.Errorf("%s: the canary unit's output changed at unchanged Epoch %q (digest %s, want %s). "+
					"Cached units of this spec are now stale: bump its Epoch, then record the new epoch "+
					"and this digest in %s", def.Name, epoch, got, w.digest, canaryFile)
			}
		})
	}
}
