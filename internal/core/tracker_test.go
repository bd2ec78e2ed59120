package core

import (
	"math"
	"strings"
	"testing"

	"silenttracker/internal/antenna"
	"silenttracker/internal/mac"
	"silenttracker/internal/phy"
	"silenttracker/internal/sim"
)

// row builds a synthetic burst measurement row for one cell.
func row(cell int, rss map[antenna.BeamID]float64) []phy.Measurement {
	var out []phy.Measurement
	for tx, v := range rss {
		out = append(out, phy.Measurement{
			Cell: cell, TxBeam: tx, RSSdBm: v, SNRdB: 20, SIRdB: math.Inf(1), Detected: true,
		})
	}
	return out
}

func newTestTracker(alwaysSearch bool) *Tracker {
	cfg := DefaultConfig()
	cfg.AlwaysSearch = alwaysSearch
	// Unit tests drive transitions directly; time-to-trigger dynamics
	// get their own test.
	cfg.TriggerBursts = 1
	tr := NewTracker(cfg, antenna.NarrowMobile(), 1, antenna.StandardBS(0), 8, 0, -50, 1)
	tr.AddCell(2, antenna.StandardBS(0))
	return tr
}

func TestTimeToTriggerRequiresConsecutiveBursts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AlwaysSearch = true
	cfg.TriggerBursts = 3
	tr := NewTracker(cfg, antenna.NarrowMobile(), 1, antenna.StandardBS(0), 8, 0, -50, 1)
	tr.AddCell(2, antenna.StandardBS(0))
	now := 20 * sim.Millisecond
	serveTick(tr, now, -50)
	now += 5 * sim.Millisecond
	tr.OnBurst(now, 2, row(2, map[antenna.BeamID]float64{5: -45, 6: -50}))
	if tr.HandoverTarget() != -1 {
		t.Fatal("triggered on the first margin-exceeding burst")
	}
	// One burst below the margin resets the counter.
	now += 20 * sim.Millisecond
	tr.OnBurst(now, 2, row(2, map[antenna.BeamID]float64{5: -50}))
	for i := 0; i < 2; i++ {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, 2, row(2, map[antenna.BeamID]float64{5: -44}))
	}
	if tr.HandoverTarget() != -1 {
		t.Fatal("counter did not reset on a below-margin burst")
	}
	now += 20 * sim.Millisecond
	tr.OnBurst(now, 2, row(2, map[antenna.BeamID]float64{5: -44}))
	if tr.HandoverTarget() != 2 {
		t.Error("did not trigger after the margin held for TriggerBursts")
	}
}

// serveTick feeds one healthy serving burst.
func serveTick(tr *Tracker, now sim.Time, rss float64) {
	rxBeam, listen := tr.PlanBurst(now, 1)
	if !listen {
		return
	}
	_ = rxBeam
	tr.OnBurst(now, 1, row(1, map[antenna.BeamID]float64{8: rss}))
}

func TestMachineValidates(t *testing.T) {
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDOTContainsAllLabels(t *testing.T) {
	d := DOT()
	for _, label := range []string{"A:", "B:", "C:", "D:", "E:", "F:", "G:", "H:"} {
		if !strings.Contains(d, label) {
			t.Errorf("DOT missing transition %s", label)
		}
	}
	for _, s := range AllStates() {
		if !strings.Contains(d, s.String()) {
			t.Errorf("DOT missing state %v", s)
		}
	}
}

func TestTransitionB_AlwaysSearch(t *testing.T) {
	tr := newTestTracker(true)
	if st, _, _, _ := tr.Neighbor(); st != NIdle {
		t.Fatal("should start idle")
	}
	serveTick(tr, 20*sim.Millisecond, -50)
	if st, _, _, _ := tr.Neighbor(); st != NSearching {
		t.Fatalf("neighbor state = %v, want searching", st)
	}
	if tr.PaperState() != NAR {
		t.Errorf("paper state = %v, want N-A/R", tr.PaperState())
	}
	// The search plans a real beam for an unknown cell's burst.
	b, listen := tr.PlanBurst(21*sim.Millisecond, 2)
	if !listen || !antenna.NarrowMobile().Valid(b) {
		t.Errorf("search plan: beam=%d listen=%v", b, listen)
	}
}

func TestTransitionB_EdgeThreshold(t *testing.T) {
	cfg := DefaultConfig()
	// Disarm serving-side adaptation so the ramp below exercises only
	// the edge trigger, not CABM.
	cfg.Serving.AdjustTriggerDB = 40
	tr := NewTracker(cfg, antenna.NarrowMobile(), 1, antenna.StandardBS(0), 8, 0, -50, 1)
	tr.AddCell(2, antenna.StandardBS(0))
	serveTick(tr, 20*sim.Millisecond, -50) // healthy, above -60 edge
	if st, _, _, _ := tr.Neighbor(); st != NIdle {
		t.Fatal("search started above the edge threshold")
	}
	// Let the RSS sink below the edge threshold.
	now := 20 * sim.Millisecond
	for rssVal := -50.0; rssVal > -66; rssVal -= 1 {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, 1, row(1, map[antenna.BeamID]float64{8: rssVal}))
	}
	if st, _, _, _ := tr.Neighbor(); st != NSearching {
		t.Fatalf("neighbor state = %v after sinking below edge, want searching", st)
	}
}

func TestTransitionC_Found(t *testing.T) {
	tr := newTestTracker(true)
	serveTick(tr, 20*sim.Millisecond, -50)
	var events []Event
	tr.SetEventHook(func(e Event) { events = append(events, e) })
	// Neighbor burst lands in the dwell with two detectable beacons.
	tr.OnBurst(25*sim.Millisecond, 2, row(2, map[antenna.BeamID]float64{5: -47, 6: -52}))
	st, cellID, tx, _ := tr.Neighbor()
	if st != NTracking || cellID != 2 {
		t.Fatalf("state=%v cell=%d, want tracking cell 2", st, cellID)
	}
	if tx != 5 {
		t.Errorf("tracked tx = %d, want strongest beam 5", tx)
	}
	if tr.PaperState() != NRBA {
		t.Errorf("paper state = %v, want N-RBA", tr.PaperState())
	}
	found := false
	for _, e := range events {
		if e.Type == EvNeighborFound && e.Cell == 2 {
			found = true
		}
	}
	if !found {
		t.Error("no neighbor-found event")
	}
	if tr.FoundAt == 0 {
		t.Error("FoundAt not recorded")
	}
}

func TestSingleDetectionInsufficient(t *testing.T) {
	tr := newTestTracker(true)
	serveTick(tr, 20*sim.Millisecond, -50)
	tr.OnBurst(25*sim.Millisecond, 2, row(2, map[antenna.BeamID]float64{5: -47}))
	if st, _, _, _ := tr.Neighbor(); st != NSearching {
		t.Error("one detection should not confirm a cell (ConfirmDetections=2)")
	}
}

// trackNeighbor drives a tracker to NTracking on cell 2, beam pair
// (5, current search beam), at roughly rss.
func trackNeighbor(t *testing.T, tr *Tracker, rss float64) sim.Time {
	t.Helper()
	now := 20 * sim.Millisecond
	serveTick(tr, now, -50)
	now += 5 * sim.Millisecond
	tr.OnBurst(now, 2, row(2, map[antenna.BeamID]float64{5: rss, 6: rss - 5}))
	if st, _, _, _ := tr.Neighbor(); st != NTracking {
		t.Fatal("setup: tracking not entered")
	}
	return now
}

func TestTransitionH_AdjacentSwitch(t *testing.T) {
	tr := newTestTracker(true)
	now := trackNeighbor(t, tr, -47)
	_, _, _, rx0 := tr.Neighbor()
	var events []Event
	tr.SetEventHook(func(e Event) { events = append(events, e) })
	// A drop past the 3 dB trigger (the EWMA sees 0.6 of the raw step)
	// but safely below the 10 dB loss threshold, held for the
	// two-burst debounce.
	for i := 0; i < 2; i++ {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, 2, row(2, map[antenna.BeamID]float64{5: -54}))
	}
	// Probe bursts: first adjacent is poor, second restores.
	adj := antenna.NarrowMobile().Adjacent(rx0)
	for i := range adj {
		now += 20 * sim.Millisecond
		plan, listen := tr.PlanBurst(now, 2)
		if !listen || plan != adj[i] {
			t.Fatalf("probe %d plan = %v/%v, want beam %d", i, plan, listen, adj[i])
		}
		rss := -58.0
		if i == len(adj)-1 {
			rss = -46.0
		}
		tr.OnBurst(now, 2, row(2, map[antenna.BeamID]float64{5: rss}))
	}
	_, _, _, rx1 := tr.Neighbor()
	if rx1 != adj[len(adj)-1] {
		t.Errorf("rx = %d after probing, want %d", rx1, adj[len(adj)-1])
	}
	if tr.NeighborSwitches != 1 {
		t.Errorf("NeighborSwitches = %d", tr.NeighborSwitches)
	}
	switched := false
	for _, e := range events {
		if e.Type == EvNeighborSwitch {
			switched = true
		}
	}
	if !switched {
		t.Error("no H event emitted")
	}
}

func TestTransitionD_LossAndReacquisition(t *testing.T) {
	tr := newTestTracker(true)
	now := trackNeighbor(t, tr, -47)
	_, _, _, lastRx := tr.Neighbor()
	// A deep collapse. The tracker first tries H (adjacent probes),
	// then — with every beam equally dead — declares D within a few
	// bursts.
	st := NTracking
	for i := 0; i < 6 && st == NTracking; i++ {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, 2, row(2, map[antenna.BeamID]float64{5: -62}))
		st, _, _, _ = tr.Neighbor()
	}
	if st != NSearching {
		t.Fatalf("state = %v after collapse, want searching (D)", st)
	}
	if tr.NeighborLosses != 1 || tr.Reacquisitions != 1 {
		t.Errorf("loss counters: %d %d", tr.NeighborLosses, tr.Reacquisitions)
	}
	// Re-acquisition starts at the last good beam.
	b, _ := tr.PlanBurst(now+sim.Millisecond, 2)
	if b != lastRx {
		t.Errorf("re-acquisition first dwell = %d, want last good %d", b, lastRx)
	}
}

func TestMissesTriggerLoss(t *testing.T) {
	tr := newTestTracker(true)
	now := trackNeighbor(t, tr, -47)
	for i := 0; i < tr.Cfg.NeighborMissLimit; i++ {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, 2, nil)
	}
	if st, _, _, _ := tr.Neighbor(); st != NSearching {
		t.Error("repeated misses should declare loss")
	}
}

func TestTransitionE_HandoverTrigger(t *testing.T) {
	tr := newTestTracker(true)
	// Neighbor at -45 vs serving -50: beats margin T=3.
	now := trackNeighbor(t, tr, -45)
	if tr.HandoverTarget() != 2 {
		t.Fatalf("handover target = %d, want 2", tr.HandoverTarget())
	}
	if tr.TriggeredAt == 0 {
		t.Error("TriggeredAt not recorded")
	}
	// PollRach at an occasion: a preamble action appears.
	tr.PollRach(now + 10*sim.Millisecond)
	acts := tr.Actions()
	var pre *PreambleAction
	for _, a := range acts {
		if a.Preamble != nil {
			pre = a.Preamble
		}
	}
	if pre == nil {
		t.Fatal("no preamble action after PollRach")
	}
	if pre.Cell != 2 || pre.BSBeam != 5 {
		t.Errorf("preamble: %+v", pre)
	}
}

func TestNoTriggerBelowMargin(t *testing.T) {
	tr := newTestTracker(true)
	trackNeighbor(t, tr, -49) // only 1 dB better than serving
	if tr.HandoverTarget() != -1 {
		t.Error("handover triggered below the margin")
	}
}

func TestFullHandoverSequence(t *testing.T) {
	tr := newTestTracker(true)
	now := trackNeighbor(t, tr, -45)
	now += 10 * sim.Millisecond
	tr.PollRach(now)
	tr.Actions()
	// RAR from cell 2.
	now += 3 * sim.Millisecond
	tr.OnDownlink(now, mac.Message{
		Header:  mac.Header{Type: mac.TypeRAR, Cell: 2, UE: 7},
		Payload: mac.RAR{TempUE: 0x8000, TxBeam: 5}.Marshal(),
	})
	acts := tr.Actions()
	var cr *ConnReqAction
	for _, a := range acts {
		if a.ConnReq != nil {
			cr = a.ConnReq
		}
	}
	if cr == nil {
		t.Fatal("no conn-req after RAR")
	}
	if cr.Source != 1 || cr.Cell != 2 {
		t.Errorf("conn-req: %+v", cr)
	}
	// Setup completes the handover.
	now += 3 * sim.Millisecond
	tr.OnDownlink(now, mac.Message{Header: mac.Header{Type: mac.TypeConnSetup, Cell: 2, UE: 7}})
	if tr.ServingCell() != 2 {
		t.Fatalf("serving cell = %d after handover", tr.ServingCell())
	}
	if tr.HandoversDone != 1 || tr.CompletedAt == 0 {
		t.Error("handover accounting wrong")
	}
	if st, _, _, _ := tr.Neighbor(); st != NIdle {
		t.Error("neighbor side should reset after handover")
	}
	if tr.PaperState() != EO {
		t.Errorf("paper state = %v after handover, want EO", tr.PaperState())
	}
	// The serving tracker now manages cell 2 with the tracked beams.
	if tr.Serving().Cell != 2 {
		t.Error("beamsurfer not reinitialised")
	}
}

func TestServingLostWhileTrackingForcesHandover(t *testing.T) {
	tr := newTestTracker(true)
	now := trackNeighbor(t, tr, -49) // below margin: no E yet
	if tr.HandoverTarget() != -1 {
		t.Fatal("setup: unexpected trigger")
	}
	// Serving goes dark for MissLimit bursts.
	for i := 0; i < tr.Cfg.Serving.MissLimit; i++ {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, 1, nil)
	}
	if !tr.Serving().Lost() {
		t.Fatal("serving should be lost")
	}
	if tr.HandoverTarget() != 2 {
		t.Error("serving loss while tracking should force the handover")
	}
	if tr.HardHandovers != 0 {
		t.Error("tracked-beam handover must not count as hard")
	}
}

func TestServingLostWithoutNeighborIsHard(t *testing.T) {
	tr := newTestTracker(false) // no search running
	now := 20 * sim.Millisecond
	serveTick(tr, now, -50)
	var events []Event
	tr.SetEventHook(func(e Event) { events = append(events, e) })
	for i := 0; i < tr.Cfg.Serving.MissLimit; i++ {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, 1, nil)
	}
	if tr.HardHandovers != 1 {
		t.Errorf("HardHandovers = %d", tr.HardHandovers)
	}
	if st, _, _, _ := tr.Neighbor(); st != NSearching {
		t.Error("hard handover should start a search")
	}
	hard := false
	for _, e := range events {
		if e.Type == EvHardHandover {
			hard = true
		}
	}
	if !hard {
		t.Error("no hard-handover event")
	}
	// When the search finds a cell, the handover fires immediately.
	now += 5 * sim.Millisecond
	tr.OnBurst(now, 2, row(2, map[antenna.BeamID]float64{5: -47, 6: -50}))
	if tr.HandoverTarget() != 2 {
		t.Error("post-loss discovery should trigger access immediately")
	}
}

func TestRachFailureAbandons(t *testing.T) {
	tr := newTestTracker(true)
	now := trackNeighbor(t, tr, -45)
	if tr.HandoverTarget() != 2 {
		t.Fatal("setup: no trigger")
	}
	// Poll occasions far apart with no responses until attempts exhaust.
	for i := 0; i < tr.Cfg.Rach.MaxAttempts*4 && tr.HandoverTarget() >= 0; i++ {
		now += tr.Cfg.Rach.OccasionPeriod * 3
		tr.PollRach(now)
	}
	if tr.HandoverTarget() != -1 {
		t.Fatal("failed RACH should abandon the attempt")
	}
	// Holdoff prevents immediate re-trigger...
	tr.OnBurst(now+sim.Millisecond, 2, row(2, map[antenna.BeamID]float64{5: -45}))
	if tr.HandoverTarget() != -1 {
		t.Error("re-trigger during holdoff")
	}
	// ...but after the holdoff the trigger re-arms.
	later := now + tr.Cfg.RetriggerHoldoff + 25*sim.Millisecond
	tr.OnBurst(later, 2, row(2, map[antenna.BeamID]float64{5: -45}))
	if tr.HandoverTarget() != 2 {
		t.Error("trigger did not re-arm after holdoff")
	}
}

func TestSearchDwellAdvancesWithTime(t *testing.T) {
	tr := newTestTracker(true)
	serveTick(tr, 20*sim.Millisecond, -50)
	b0, _ := tr.PlanBurst(25*sim.Millisecond, 2)
	b1, _ := tr.PlanBurst(25*sim.Millisecond+tr.Cfg.SweepPeriod, 2)
	if b0 == b1 {
		t.Error("dwell beam did not advance after a sweep period")
	}
}

func TestPaperStateMapping(t *testing.T) {
	tr := newTestTracker(false)
	if tr.PaperState() != EO {
		t.Errorf("initial paper state = %v", tr.PaperState())
	}
	// Drive the serving tracker into probing: S-RBA (the 3 dB rule is
	// debounced over two bursts).
	tr.OnBurst(20*sim.Millisecond, 1, row(1, map[antenna.BeamID]float64{8: -58}))
	tr.OnBurst(40*sim.Millisecond, 1, row(1, map[antenna.BeamID]float64{8: -58}))
	if tr.PaperState() != SRBA {
		t.Errorf("paper state = %v, want S-RBA", tr.PaperState())
	}
}

func TestIgnoresForeignDownlink(t *testing.T) {
	tr := newTestTracker(true)
	trackNeighbor(t, tr, -45)
	// RAR from the wrong cell must not advance the RACH.
	tr.OnDownlink(200*sim.Millisecond, mac.Message{
		Header:  mac.Header{Type: mac.TypeRAR, Cell: 9},
		Payload: mac.RAR{}.Marshal(),
	})
	if tr.Rach().State() == mac.RachWaitSetup {
		t.Error("foreign RAR accepted")
	}
}

func TestReportEmittedEachServingBurst(t *testing.T) {
	tr := newTestTracker(false)
	serveTick(tr, 20*sim.Millisecond, -50)
	acts := tr.Actions()
	found := false
	for _, a := range acts {
		if a.Report != nil && a.Report.Cell == 1 {
			found = true
		}
	}
	if !found {
		t.Error("no measurement report after serving burst")
	}
}

func TestEventStringNames(t *testing.T) {
	if EvNeighborFound.String() != "neighbor-found" {
		t.Error("event name broken")
	}
	if EventType(99).String() == "" {
		t.Error("unknown event should print")
	}
}
