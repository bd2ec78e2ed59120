package beamsurfer

import (
	"math"
	"testing"

	"silenttracker/internal/antenna"
	"silenttracker/internal/phy"
	"silenttracker/internal/sim"
)

// row builds a synthetic serving-burst measurement row. rss maps
// transmit beam → RSS; beams absent from the map are undetected.
func row(rx antenna.BeamID, rss map[antenna.BeamID]float64) []phy.Measurement {
	var out []phy.Measurement
	for tx, v := range rss {
		out = append(out, phy.Measurement{
			TxBeam: tx, RxBeam: rx, RSSdBm: v, SNRdB: 20, SIRdB: math.Inf(1), Detected: true,
		})
	}
	return out
}

func newTracker() *Tracker {
	return New(DefaultConfig(), 1, antenna.NarrowMobile(), antenna.StandardBS(0), 8, 0, -50)
}

func TestSteadyNoActions(t *testing.T) {
	tr := newTracker()
	now := sim.Time(0)
	for i := 0; i < 20; i++ {
		now += 20 * sim.Millisecond
		rx := tr.PlanBurst(now)
		if rx != 0 {
			t.Fatalf("steady plan = beam %d, want 0", rx)
		}
		tr.OnBurst(now, row(rx, map[antenna.BeamID]float64{8: -50}))
	}
	if tr.CurrentPhase() != PhaseSteady {
		t.Errorf("phase = %v", tr.CurrentPhase())
	}
	if len(tr.Actions()) != 0 {
		t.Error("steady tracker emitted actions")
	}
	if tr.RSS() > -49 || tr.RSS() < -51 {
		t.Errorf("RSS estimate = %v", tr.RSS())
	}
}

func TestReferenceFollowsImprovementSlowly(t *testing.T) {
	tr := newTracker()
	now := sim.Time(0)
	for i := 0; i < 80; i++ {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, row(0, map[antenna.BeamID]float64{8: -40}))
	}
	if tr.Ref() < -44 || tr.Ref() > -40 {
		t.Errorf("reference should converge toward the improved level: %v", tr.Ref())
	}
	// A single upward spike must not drag the reference with it.
	tr2 := newTracker()
	tr2.OnBurst(20*sim.Millisecond, row(0, map[antenna.BeamID]float64{8: -40}))
	if tr2.Ref() > -49 {
		t.Errorf("reference chased a single spike: %v", tr2.Ref())
	}
}

// trigger drives two consecutive drop bursts (the debounce length).
func trigger(tr *Tracker, now sim.Time, rss map[antenna.BeamID]float64) sim.Time {
	for i := 0; i < tr.Cfg.TriggerBursts; i++ {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, row(tr.PlanBurst(now), rss))
	}
	return now
}

func TestDropTriggersProbing(t *testing.T) {
	tr := newTracker()
	// One drop burst is a fade; it must not trigger.
	tr.OnBurst(20*sim.Millisecond, row(0, map[antenna.BeamID]float64{8: -56}))
	if tr.CurrentPhase() != PhaseSteady {
		t.Fatalf("single-burst fade triggered probing")
	}
	// The second consecutive drop burst does.
	now := 40 * sim.Millisecond
	tr.OnBurst(now, row(0, map[antenna.BeamID]float64{8: -56}))
	if tr.CurrentPhase() != PhaseProbeA {
		t.Fatalf("phase = %v, want probe-a", tr.CurrentPhase())
	}
	adj := antenna.NarrowMobile().Adjacent(0)
	p1 := tr.PlanBurst(now + 20*sim.Millisecond)
	if p1 != adj[0] {
		t.Errorf("first probe beam = %d, want %d", p1, adj[0])
	}
}

func TestProbeAdoptsBetterBeam(t *testing.T) {
	tr := newTracker()
	adj := antenna.NarrowMobile().Adjacent(0) // [17, 1]
	now := trigger(tr, 0, map[antenna.BeamID]float64{8: -56})
	// Probe A (beam 17): poor.
	now += 20 * sim.Millisecond
	tr.OnBurst(now, row(tr.PlanBurst(now), map[antenna.BeamID]float64{8: -60}))
	// Probe B (beam 1): restores the link.
	now += 20 * sim.Millisecond
	tr.OnBurst(now, row(tr.PlanBurst(now), map[antenna.BeamID]float64{8: -49}))
	_, rx := tr.Beams()
	if rx != adj[1] {
		t.Fatalf("rx = %d, want adopted probe %d", rx, adj[1])
	}
	if tr.CurrentPhase() != PhaseSteady {
		t.Errorf("phase = %v, want steady", tr.CurrentPhase())
	}
	if tr.MobileSwitches != 1 {
		t.Errorf("MobileSwitches = %d", tr.MobileSwitches)
	}
	if len(tr.Actions()) != 0 {
		t.Error("successful mobile-side switch should not message the BS")
	}
}

func TestProbeInsufficientProposesBSSwitch(t *testing.T) {
	tr := newTracker()
	now := trigger(tr, 0, map[antenna.BeamID]float64{8: -58, 7: -62, 9: -52})
	// Both probes poor, but the row shows adjacent tx beam 9 stronger.
	for i := 0; i < 2; i++ {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, row(tr.PlanBurst(now), map[antenna.BeamID]float64{
			8: -58, 7: -62, 9: -52,
		}))
	}
	if tr.CurrentPhase() != PhaseAwaitAck {
		t.Fatalf("phase = %v, want await-ack", tr.CurrentPhase())
	}
	acts := tr.Actions()
	if len(acts) != 1 || acts[0].SwitchReq == nil {
		t.Fatalf("actions = %+v", acts)
	}
	req := acts[0].SwitchReq
	if req.ProposedTx != 9 {
		t.Errorf("proposed tx = %d, want 9 (strongest adjacent)", req.ProposedTx)
	}
	if req.CurrentTx != 8 || req.Cell != 1 {
		t.Errorf("request fields: %+v", req)
	}
}

func TestAckAppliesSwitch(t *testing.T) {
	tr := trackerAwaitingAck(t)
	tr.OnSwitchAck(200*sim.Millisecond, 9)
	tx, _ := tr.Beams()
	if tx != 9 {
		t.Errorf("tx = %d after ack, want 9", tx)
	}
	if tr.CurrentPhase() != PhaseSteady {
		t.Errorf("phase = %v", tr.CurrentPhase())
	}
	if tr.BSSwitchesAckd != 1 {
		t.Errorf("BSSwitchesAckd = %d", tr.BSSwitchesAckd)
	}
}

func TestWrongAckIgnored(t *testing.T) {
	tr := trackerAwaitingAck(t)
	tr.OnSwitchAck(200*sim.Millisecond, 5)
	tx, _ := tr.Beams()
	if tx != 8 || tr.CurrentPhase() != PhaseAwaitAck {
		t.Error("mismatched ack applied")
	}
}

// trackerAwaitingAck drives a tracker into PhaseAwaitAck proposing
// tx beam 9.
func trackerAwaitingAck(t *testing.T) *Tracker {
	t.Helper()
	tr := newTracker()
	now := trigger(tr, 0, map[antenna.BeamID]float64{8: -58, 9: -52})
	for i := 0; i < 2; i++ {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, row(tr.PlanBurst(now), map[antenna.BeamID]float64{8: -58, 9: -52}))
	}
	if tr.CurrentPhase() != PhaseAwaitAck {
		t.Fatalf("setup failed: phase = %v", tr.CurrentPhase())
	}
	tr.Actions() // drain the first request
	return tr
}

func TestAckTimeoutRetriesThenLost(t *testing.T) {
	tr := trackerAwaitingAck(t)
	now := 100 * sim.Millisecond
	tr.PlanBurst(now) // anchors reqSentAt
	requests := 0
	for i := 0; i < 30 && !tr.Lost(); i++ {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, row(tr.PlanBurst(now), map[antenna.BeamID]float64{8: -58}))
		requests += len(tr.Actions())
	}
	if !tr.Lost() {
		t.Fatal("tracker never declared loss without acks")
	}
	// Initial request (drained in setup) plus retries up to MaxSwitchTries.
	if requests != tr.Cfg.MaxSwitchTries-1 {
		t.Errorf("retransmissions = %d, want %d", requests, tr.Cfg.MaxSwitchTries-1)
	}
}

func TestConsecutiveMissesDeclareLoss(t *testing.T) {
	tr := newTracker()
	now := sim.Time(0)
	for i := 0; i < tr.Cfg.MissLimit; i++ {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, nil) // nothing detected
	}
	if !tr.Lost() {
		t.Error("tracker survived a dead link")
	}
}

func TestMissCountResetOnDetection(t *testing.T) {
	tr := newTracker()
	now := sim.Time(0)
	for i := 0; i < tr.Cfg.MissLimit*3; i++ {
		now += 20 * sim.Millisecond
		if i%2 == 0 {
			tr.OnBurst(now, nil)
		} else {
			tr.OnBurst(now, row(0, map[antenna.BeamID]float64{8: -50}))
		}
	}
	if tr.Lost() {
		t.Error("alternating detections should not lose the link")
	}
}

func TestOmniSkipsMobileSideProbing(t *testing.T) {
	cfg := DefaultConfig()
	tr := New(cfg, 1, antenna.OmniMobile(), antenna.StandardBS(0), 8, 0, -50)
	trigger(tr, 0, map[antenna.BeamID]float64{8: -58, 9: -54})
	// No adjacent rx beams exist: must go straight to a CABM request.
	if tr.CurrentPhase() != PhaseAwaitAck {
		t.Fatalf("phase = %v, want await-ack", tr.CurrentPhase())
	}
	acts := tr.Actions()
	if len(acts) != 1 || acts[0].SwitchReq.ProposedTx != 9 {
		t.Errorf("actions: %+v", acts)
	}
}

func TestNoEvidenceNoCABMRequest(t *testing.T) {
	// The drop persists but every adjacent transmit beam looks worse:
	// the tracker must not ask the cell to make things worse.
	cfg := DefaultConfig()
	tr := New(cfg, 1, antenna.OmniMobile(), antenna.StandardBS(0), 8, 0, -50)
	trigger(tr, 0, map[antenna.BeamID]float64{8: -58, 7: -65, 9: -66})
	if tr.CurrentPhase() != PhaseSteady {
		t.Fatalf("phase = %v, want steady (proposal gated)", tr.CurrentPhase())
	}
	if len(tr.Actions()) != 0 {
		t.Error("request emitted without evidence")
	}
}

func TestBSEdgeBeamLoss(t *testing.T) {
	// Serving tx at the sector edge with a single-beam BS codebook:
	// no adjacent beam to propose → immediate loss.
	oneBeam := antenna.NewSectorCodebook("one", 0, 0, 1, 0.3, antenna.ModelGaussian)
	tr := New(DefaultConfig(), 1, antenna.OmniMobile(), oneBeam, 0, 0, -50)
	trigger(tr, 0, map[antenna.BeamID]float64{0: -60})
	if !tr.Lost() {
		t.Error("no escape hatch should mean loss")
	}
}

func TestReinit(t *testing.T) {
	tr := trackerAwaitingAck(t)
	tr.Reinit(2, antenna.StandardBS(0), 3, 4, -45)
	if tr.Cell != 2 || tr.CurrentPhase() != PhaseSteady {
		t.Error("reinit incomplete")
	}
	tx, rx := tr.Beams()
	if tx != 3 || rx != 4 {
		t.Errorf("beams = %d/%d", tx, rx)
	}
	if tr.RSS() != -45 || tr.Ref() != -45 {
		t.Error("RSS not rebased")
	}
	if len(tr.Actions()) != 0 {
		t.Error("stale actions survived reinit")
	}
}

func TestAdaptationPausedWhileAwaitingAck(t *testing.T) {
	tr := trackerAwaitingAck(t)
	now := 100 * sim.Millisecond
	tr.PlanBurst(now)
	// Strong further drop must not start a new probe mid-request.
	tr.OnBurst(now+sim.Millisecond, row(tr.PlanBurst(now+sim.Millisecond),
		map[antenna.BeamID]float64{8: -70}))
	if tr.CurrentPhase() != PhaseAwaitAck {
		t.Errorf("phase = %v, adaptation should pause during CABM", tr.CurrentPhase())
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseSteady.String() != "steady" || Phase(42).String() == "" {
		t.Error("phase names broken")
	}
}
