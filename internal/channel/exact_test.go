package channel

import (
	"math"
	"testing"

	"silenttracker/internal/mathx"
	"silenttracker/internal/rng"
)

// refDecodes is the detection rule Decodes replaces: compute the SINR,
// compare it with the threshold.
func refDecodes(snr, sir, thr float64) bool {
	return -mathx.LinToDB(mathx.DBToLin(-snr)+mathx.DBToLin(-sir)) >= thr
}

// ulps returns x stepped k ulps (negative k steps down).
func ulps(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// decodeCases returns SNR/SIR values around thr's decision edges —
// thr and thr + 10·log10 2, each ± the slack, all ± a few ulps — plus
// the special values and magnitudes at and beyond the bound argument's
// range.
func decodeCases(thr float64) []float64 {
	vs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1e4, -1e4, 299, 301, -299, -301, 3100, -3100, 3250, -3250, thr + 1, thr - 1, thr + 2}
	for _, edge := range []float64{thr, thr + log2dB} {
		for _, e := range []float64{edge, edge - decodeSlack, edge + decodeSlack} {
			for k := -3; k <= 3; k++ {
				vs = append(vs, ulps(e, k))
			}
		}
	}
	return vs
}

// TestDecodesMatchesSINR: the bound-first predicate is bit-for-bit
// the decision the SINR comparison makes, across the band edges, the
// special values and overflowing magnitudes.
func TestDecodesMatchesSINR(t *testing.T) {
	thrs := []float64{6, 14, 0, math.Copysign(0, -1), -3, 1e-300, 1e4, -1e4, 3200,
		math.Inf(1), math.Inf(-1), math.NaN()}
	checked := 0
	for _, thr := range thrs {
		vs := decodeCases(thr)
		for _, snr := range vs {
			for _, sir := range vs {
				if got, want := Decodes(snr, sir, thr), refDecodes(snr, sir, thr); got != want {
					t.Errorf("Decodes(%v, %v, %v) = %v, SINR comparison says %v", snr, sir, thr, got, want)
				}
				checked++
			}
		}
	}
	// NaN on either side must not take a bound decision: with a high
	// SNR the bounds would accept, the SINR comparison rejects.
	if Decodes(40, math.NaN(), 6) || Decodes(math.NaN(), 40, 6) {
		t.Error("a NaN input decoded")
	}
	t.Logf("%d decisions checked", checked)
}

func FuzzDecodes(f *testing.F) {
	for _, thr := range []float64{6, 14, -3} {
		for _, v := range decodeCases(thr) {
			f.Add(v, math.Inf(1), thr)
			f.Add(thr+log2dB, v, thr)
		}
	}
	f.Fuzz(func(t *testing.T, snr, sir, thr float64) {
		if got, want := Decodes(snr, sir, thr), refDecodes(snr, sir, thr); got != want {
			t.Errorf("Decodes(%v, %v, %v) = %v, SINR comparison says %v", snr, sir, thr, got, want)
		}
	})
}

// TestSampleSINR: the sample's SINR is the expression the link used
// to store per sample, over the sample's own SNR and SIR.
func TestSampleSINR(t *testing.T) {
	l := NewLink(DefaultParams(), 4, "sinr")
	for i := 0; i < 2000; i++ {
		s := l.Measure(float64(i)*2.5e-4, 3+float64(i%40), 23, 20, 5)
		if s.SNRdB != s.RSSdBm-l.noiseFloor {
			t.Fatalf("sample %d: SNR %v, want RSS over the noise floor %v", i, s.SNRdB, s.RSSdBm-l.noiseFloor)
		}
		want := -mathx.LinToDB(mathx.DBToLin(-s.SNRdB) + mathx.DBToLin(-s.SIRdB))
		if got := s.SINRdB(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sample %d: SINRdB() = %v, want %v", i, got, want)
		}
	}
}

// TestShadowingMatchesReference: the memoised correlation pair is the
// per-step exp/sqrt pair bit for bit, also when the steps cycle through
// more distinct sizes than the memo holds (so entries are evicted and
// recomputed) and through non-positive steps.
func TestShadowingMatchesReference(t *testing.T) {
	const sigma, tau = 2.5, 0.5
	dts := []float64{
		2.5e-4, 0.02025 - 0.0200, 0.0196, 0.01960000000000001, 1.75e-3,
		0, 2.5e-4, 0.1, -1e-3, 3e-6, 0.0196, 2.5e-4 + 2.5e-4,
	}
	distinct := make(map[float64]bool)
	for _, dt := range dts {
		if dt > 0 {
			distinct[dt] = true
		}
	}
	if len(distinct) <= shadowMemo {
		t.Fatalf("%d distinct steps; the cycle must outnumber the memo's %d slots", len(distinct), shadowMemo)
	}
	s := NewShadowing(sigma, tau, rng.Stream(5, "shadow-ref"))
	src := rng.Stream(5, "shadow-ref")
	cur := src.Normal(0, sigma)
	for i := 0; i < 20000; i++ {
		dt := dts[i%len(dts)]
		if dt > 0 {
			rho := math.Exp(-dt / tau)
			cur = rho*cur + math.Sqrt(1-rho*rho)*src.Normal(0, sigma)
		}
		if got := s.Advance(dt); math.Float64bits(got) != math.Float64bits(cur) {
			t.Fatalf("step %d (dt %v): %v, reference %v", i, dt, got, cur)
		}
	}
}
