package channel

import (
	"math"
	"testing"
	"testing/quick"

	"silenttracker/internal/rng"
)

func TestNoiseFloor(t *testing.T) {
	p := DefaultParams()
	// -174 + 10log10(2e9) + 7 ≈ -74 dBm.
	nf := p.NoiseFloorDBm()
	if math.Abs(nf-(-74)) > 0.5 {
		t.Errorf("noise floor = %v dBm, want ~-74", nf)
	}
}

func TestFSPLKnownValue(t *testing.T) {
	p := DefaultParams()
	// 60 GHz at 10 m: 20log10(4π·10/0.005) ≈ 88 dB + 0.15 dB oxygen.
	got := p.FSPLdB(10)
	if math.Abs(got-88.1) > 0.5 {
		t.Errorf("FSPL(10m) = %v dB, want ~88", got)
	}
}

func TestFSPLMonotoneInDistance(t *testing.T) {
	p := DefaultParams()
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > 1e5 || b > 1e5 {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return p.FSPLdB(a) <= p.FSPLdB(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFSPLClampsBelow1m(t *testing.T) {
	p := DefaultParams()
	if p.FSPLdB(0.1) != p.FSPLdB(1) {
		t.Error("sub-meter distances should clamp")
	}
}

func TestShadowingStationaryMoments(t *testing.T) {
	s := NewShadowing(3, 0.5, rng.New(1))
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Advance(0.05)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean) > 0.15 {
		t.Errorf("shadowing mean = %v, want ~0", mean)
	}
	if math.Abs(std-3) > 0.25 {
		t.Errorf("shadowing std = %v, want ~3", std)
	}
}

func TestShadowingCorrelationDecays(t *testing.T) {
	// Short steps stay close to the previous value; long steps do not.
	shortDiffs, longDiffs := 0.0, 0.0
	const n = 5000
	s1 := NewShadowing(3, 1.0, rng.New(2))
	prev := s1.Value()
	for i := 0; i < n; i++ {
		cur := s1.Advance(0.01)
		shortDiffs += math.Abs(cur - prev)
		prev = cur
	}
	s2 := NewShadowing(3, 1.0, rng.New(3))
	prev = s2.Value()
	for i := 0; i < n; i++ {
		cur := s2.Advance(10)
		longDiffs += math.Abs(cur - prev)
		prev = cur
	}
	if shortDiffs >= longDiffs {
		t.Errorf("correlation should make short-step diffs smaller: short=%v long=%v",
			shortDiffs/n, longDiffs/n)
	}
}

func TestShadowingZeroDtNoChange(t *testing.T) {
	s := NewShadowing(3, 0.5, rng.New(4))
	v := s.Value()
	if s.Advance(0) != v || s.Advance(-1) != v {
		t.Error("non-positive dt should not advance the process")
	}
}

func TestBlockerDutyCycle(t *testing.T) {
	b := NewBlocker(2.0, 0.5, rng.New(5))
	blocked := 0
	const n = 200000
	const dt = 0.01
	for i := 0; i < n; i++ {
		if b.BlockedAt(float64(i) * dt) {
			blocked++
		}
	}
	frac := float64(blocked) / n
	want := 0.5 / (2.0 + 0.5) // meanHold / (meanLOS + meanHold)
	if math.Abs(frac-want) > 0.05 {
		t.Errorf("blocked fraction = %v, want ~%v", frac, want)
	}
}

func TestBlockerDisabled(t *testing.T) {
	b := Disabled()
	for i := 0; i < 1000; i++ {
		if b.BlockedAt(float64(i)) {
			t.Fatal("disabled blocker blocked")
		}
	}
}

func TestBlockerStateHolds(t *testing.T) {
	// Within a holding time the state must not flap.
	b := NewBlocker(1000, 1000, rng.New(6))
	first := b.BlockedAt(0.001)
	for i := 0; i < 100; i++ {
		if b.BlockedAt(0.001+float64(i)*1e-6) != first {
			t.Fatal("state flapped within holding time")
		}
	}
}

func TestMeasureBudget(t *testing.T) {
	p := DefaultParams()
	l := NewLinkNoBlockage(p, 1, "test")
	// Average many samples: mean RSS should approach the deterministic
	// budget (shadowing and fading are mean-zero in dB up to the Rician
	// Jensen gap, which is small for K=10).
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		s := l.Measure(float64(i)*0.01, 10, 20, 20, 5)
		sum += s.RSSdBm
	}
	mean := sum / n
	want := p.MeanRSSdBm(10, 20, 20)
	if math.Abs(mean-want) > 1.0 {
		t.Errorf("mean RSS = %v, budget = %v", mean, want)
	}
}

func TestMeanRSSKnown(t *testing.T) {
	p := DefaultParams()
	// 20 dBm + 20 + 20 - 88.1 ≈ -28 dBm at 10 m.
	got := p.MeanRSSdBm(10, 20, 20)
	if math.Abs(got-(-28)) > 1 {
		t.Errorf("MeanRSS = %v, want ~-28", got)
	}
}

func TestBlockageDepressesRSS(t *testing.T) {
	p := DefaultParams()
	p.BlockMeanLOS = 0.001 // essentially always blocked after start
	p.BlockMeanHold = 1e6
	blockedLink := NewLink(p, 7, "blocked")
	clearLink := NewLinkNoBlockage(p, 7, "clear")
	var sumB, sumC float64
	const n = 5000
	for i := 0; i < n; i++ {
		tm := 1 + float64(i)*0.01
		sumB += blockedLink.Measure(tm, 10, 20, 20, 5).RSSdBm
		sumC += clearLink.Measure(tm, 10, 20, 20, 5).RSSdBm
	}
	gap := (sumC - sumB) / n
	if gap < 15 || gap > 30 {
		t.Errorf("blockage gap = %v dB, want ~22", gap)
	}
}

func TestBlockedSampleAnnotated(t *testing.T) {
	p := DefaultParams()
	p.BlockMeanLOS = 1e-9
	p.BlockMeanHold = 1e9
	l := NewLink(p, 8, "x")
	s := l.Measure(1, 10, 20, 20, 5)
	if !s.Blocked || s.BlockLoss <= 0 {
		t.Errorf("sample should be blocked with positive loss: %+v", s)
	}
}

func TestDeterministicLinks(t *testing.T) {
	p := DefaultParams()
	a := NewLink(p, 42, "link")
	b := NewLink(p, 42, "link")
	for i := 0; i < 100; i++ {
		tm := float64(i) * 0.02
		sa, sb := a.Measure(tm, 15, 20, 10, -5), b.Measure(tm, 15, 20, 10, -5)
		if sa != sb {
			t.Fatalf("links with same seed/name diverged at %d", i)
		}
	}
}

func TestRSSDecomposition(t *testing.T) {
	p := DefaultParams()
	l := NewLinkNoBlockage(p, 10, "x")
	s := l.Measure(0.5, 12, 18, 14, 0)
	recomposed := p.TxPowerDBm + 18 + 14 - s.PathLoss + s.Shadow + s.FadingDB - s.BlockLoss
	if math.Abs(recomposed-s.RSSdBm) > 1e-9 {
		t.Errorf("decomposition inconsistent: %v vs %v", recomposed, s.RSSdBm)
	}
}

func TestGainMonotonicity(t *testing.T) {
	// More antenna gain can only help.
	p := DefaultParams()
	f := func(g1, g2 float64) bool {
		g1, g2 = math.Mod(math.Abs(g1), 40), math.Mod(math.Abs(g2), 40)
		if g1 > g2 {
			g1, g2 = g2, g1
		}
		return p.MeanRSSdBm(10, g1, 0) <= p.MeanRSSdBm(10, g2, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOmniSelfInterferenceLimited(t *testing.T) {
	// With zero selectivity (omni), SINR saturates at ~ReflLossDB no
	// matter how strong the link budget is.
	p := DefaultParams()
	l := NewLinkNoBlockage(p, 11, "omni")
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		s := l.Measure(float64(i)*0.02, 5, 23, 2, 2) // rxGain == rxAvg: omni
		sum += s.SINRdB()
	}
	mean := sum / n
	if mean > p.ReflLossDB+3 {
		t.Errorf("omni mean SINR = %v dB, should saturate near %v", mean, p.ReflLossDB)
	}
	if mean < p.ReflLossDB-6 {
		t.Errorf("omni mean SINR = %v dB, unexpectedly low", mean)
	}
}

func TestDirectionalBeatsOmniSINR(t *testing.T) {
	p := DefaultParams()
	dir := NewLinkNoBlockage(p, 12, "dir")
	omni := NewLinkNoBlockage(p, 12, "omni2")
	var sumDir, sumOmni float64
	const n = 5000
	for i := 0; i < n; i++ {
		tm := float64(i) * 0.02
		// Directional: 20 dBi toward LOS, 5 dBi average (15 dB selectivity).
		sumDir += dir.Measure(tm, 10, 23, 20, 5).SINRdB()
		sumOmni += omni.Measure(tm, 10, 23, 2, 2).SINRdB()
	}
	if (sumDir-sumOmni)/n < 10 {
		t.Errorf("directional SINR advantage = %v dB, want >10", (sumDir-sumOmni)/n)
	}
}

func TestBlockageCollapsesSIR(t *testing.T) {
	p := DefaultParams()
	p.BlockMeanLOS = 1e-9
	p.BlockMeanHold = 1e9
	blocked := NewLink(p, 13, "b")
	clear := NewLinkNoBlockage(p, 13, "c")
	var sumB, sumC float64
	const n = 3000
	for i := 0; i < n; i++ {
		tm := 1 + float64(i)*0.02
		sumB += blocked.Measure(tm, 10, 23, 20, 5).SIRdB
		sumC += clear.Measure(tm, 10, 23, 20, 5).SIRdB
	}
	if (sumC-sumB)/n < 15 {
		t.Errorf("blockage SIR collapse = %v dB, want ~22", (sumC-sumB)/n)
	}
}

func TestMisalignedBeamLowSINR(t *testing.T) {
	// A beam pointing away from the LOS (gain below pattern average)
	// must see a poor SINR even at close range.
	p := DefaultParams()
	l := NewLinkNoBlockage(p, 14, "mis")
	var sum float64
	const n = 3000
	for i := 0; i < n; i++ {
		// rxGain -5 (sidelobe), rxAvg 5: pointing 10 dB below average.
		sum += l.Measure(float64(i)*0.02, 10, 23, -5, 5).SINRdB()
	}
	if mean := sum / n; mean > 6 {
		t.Errorf("misaligned mean SINR = %v dB, should be poor", mean)
	}
}

func TestSoftRangeLimit(t *testing.T) {
	p := DefaultParams()
	p.SoftRangeLimit = 14
	p.SoftRangeRolloff = 10
	base := DefaultParams()
	// Inside the limit: identical to the base model.
	if p.FSPLdB(10) != base.FSPLdB(10) {
		t.Error("soft range limit changed in-coverage loss")
	}
	// Past the limit: 10 dB per meter on top.
	got := p.FSPLdB(16) - base.FSPLdB(16)
	if math.Abs(got-20) > 1e-9 {
		t.Errorf("rolloff at 16 m = %v dB, want 20", got)
	}
	// Still monotone.
	if p.FSPLdB(15) >= p.FSPLdB(17) {
		t.Error("rolloff broke monotonicity")
	}
}

func TestSoftRangeDisabledByDefault(t *testing.T) {
	p := DefaultParams()
	if p.SoftRangeLimit != 0 {
		t.Error("soft range limit should default off")
	}
}
