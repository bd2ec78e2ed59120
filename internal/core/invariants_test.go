package core

import (
	"math"
	"testing"

	"silenttracker/internal/antenna"
	"silenttracker/internal/mac"
	"silenttracker/internal/phy"
	"silenttracker/internal/rng"
	"silenttracker/internal/sim"
)

// TestProtocolInvariantsUnderRandomInput drives the tracker with
// hundreds of randomly generated measurement rows, downlink messages,
// and RACH polls, checking structural invariants after every step.
// The tracker must never panic, never leave the legal state space,
// and never violate silence (no uplink to a neighbor before a
// handover trigger).
func TestProtocolInvariantsUnderRandomInput(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		runRandomTrace(t, seed)
	}
}

func runRandomTrace(t *testing.T, seed int64) {
	t.Helper()
	src := rng.New(seed)
	cfg := DefaultConfig()
	cfg.AlwaysSearch = src.Bool(0.7)
	cfg.NeighborRefresh = 0
	if src.Bool(0.3) {
		cfg.NeighborRefresh = 300 * sim.Millisecond
	}
	tr := NewTracker(cfg, antenna.NarrowMobile(), 1, antenna.StandardBS(0), 8, 0, -50, seed)
	tr.AddCell(2, antenna.StandardBS(0))
	tr.AddCell(3, antenna.StandardBS(0))

	triggered := false
	tr.SetEventHook(func(e Event) {
		if e.Type == EvHandoverTriggered {
			triggered = true
		}
	})

	now := sim.Time(0)
	lastHandovers := 0
	for step := 0; step < 600; step++ {
		now += sim.Time(src.Intn(20)+1) * sim.Millisecond
		switch src.Intn(10) {
		case 0, 1, 2, 3: // serving burst (possibly empty)
			tr.OnBurst(now, tr.ServingCell(), randomRow(src, tr.ServingCell()))
		case 4, 5, 6: // neighbor burst
			cellID := 2 + src.Intn(2)
			if _, listen := tr.PlanBurst(now, cellID); listen {
				tr.OnBurst(now, cellID, randomRow(src, cellID))
			}
		case 7: // RACH occasion
			tr.PollRach(now)
		case 8: // random downlink
			tr.OnDownlink(now, randomDownlink(src))
		case 9: // adversarial: burst for a cell nobody registered
			tr.OnBurst(now, 99, randomRow(src, 99))
		}

		// --- invariants ---
		st := tr.PaperState()
		if st < EO || st > NRBA {
			t.Fatalf("seed %d step %d: illegal paper state %v", seed, step, st)
		}
		nst, nc, _, _ := tr.Neighbor()
		if nst == NTracking && nc < 0 {
			t.Fatalf("seed %d step %d: tracking without a cell", seed, step)
		}
		if tr.HandoversDone < lastHandovers {
			t.Fatalf("seed %d step %d: handover counter went backwards", seed, step)
		}
		lastHandovers = tr.HandoversDone
		for _, a := range tr.Actions() {
			switch {
			case a.Preamble != nil, a.ConnReq != nil:
				if !triggered {
					t.Fatalf("seed %d step %d: uplink to neighbor before any trigger (silence violated)",
						seed, step)
				}
			case a.SwitchReq != nil:
				if a.SwitchReq.Cell != tr.ServingCell() && !tr.Serving().Lost() {
					t.Fatalf("seed %d step %d: CABM to a non-serving cell", seed, step)
				}
			}
		}
	}
}

func randomRow(src *rng.Source, cellID int) []phy.Measurement {
	n := src.Intn(5)
	out := make([]phy.Measurement, 0, n)
	for i := 0; i < n; i++ {
		sinr := src.Uniform(-5, 30)
		out = append(out, phy.Measurement{
			Cell:     cellID,
			TxBeam:   antenna.BeamID(src.Intn(16)),
			RxBeam:   antenna.BeamID(src.Intn(18)),
			RSSdBm:   src.Uniform(-90, -20),
			SNRdB:    sinr,
			SIRdB:    math.Inf(1),
			Detected: sinr >= 6,
		})
	}
	return out
}

func randomDownlink(src *rng.Source) mac.Message {
	types := []mac.Type{
		mac.TypeRAR, mac.TypeConnSetup, mac.TypeBeamSwitchAck,
		mac.TypeKeepAlive, mac.TypeData, mac.Type(200),
	}
	m := mac.Message{Header: mac.Header{
		Type: types[src.Intn(len(types))],
		Cell: uint16(1 + src.Intn(3)),
		UE:   7,
	}}
	switch m.Type {
	case mac.TypeRAR:
		m.Payload = mac.RAR{TempUE: uint16(src.Intn(1000)), TxBeam: int16(src.Intn(16))}.Marshal()
	case mac.TypeBeamSwitchAck:
		m.Payload = mac.BeamSwitchReq{CurrentTx: int16(src.Intn(16)), ProposedTx: int16(src.Intn(16))}.Marshal()
	}
	// Occasionally corrupt the payload.
	if src.Bool(0.2) && len(m.Payload) > 2 {
		m.Payload = m.Payload[:src.Intn(len(m.Payload))]
	}
	return m
}

// TestTrackerNeverTransmitsWhileIdle checks the quiet baseline: a
// tracker with search disabled and a healthy serving link produces
// only serving-cell reports, forever.
func TestTrackerNeverTransmitsWhileIdle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AlwaysSearch = false
	cfg.EdgeRSSdBm = -300
	tr := NewTracker(cfg, antenna.NarrowMobile(), 1, antenna.StandardBS(0), 8, 0, -50, 1)
	tr.AddCell(2, antenna.StandardBS(0))
	now := sim.Time(0)
	for i := 0; i < 500; i++ {
		now += 20 * sim.Millisecond
		tr.OnBurst(now, 1, row(1, map[antenna.BeamID]float64{8: -50}))
		tr.PollRach(now)
		for _, a := range tr.Actions() {
			if a.Report == nil {
				t.Fatalf("idle tracker produced a non-report action: %+v", a)
			}
			if a.Report.Cell != 1 {
				t.Fatalf("report to the wrong cell: %+v", a.Report)
			}
		}
	}
	if tr.PaperState() != EO {
		t.Errorf("state = %v after 10 s of quiet, want EO", tr.PaperState())
	}
}
