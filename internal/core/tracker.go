package core

import (
	"silenttracker/internal/antenna"
	"silenttracker/internal/beamsurfer"
	"silenttracker/internal/mac"
	"silenttracker/internal/phy"
	"silenttracker/internal/rng"
	"silenttracker/internal/sim"
)

// Config holds the Silent Tracker protocol constants. The defaults are
// the paper's: 3 dB adjacent-switch triggers, 10 dB loss threshold,
// T = 3 dB handover margin.
type Config struct {
	Serving beamsurfer.Config // BeamSurfer constants for the serving link

	SweepPeriod       sim.Time // cell sync-burst period (sets dwell length)
	ConfirmDetections int      // C: beacons decoded in one dwell to declare "found"
	ConfirmSNRdB      float64  // C: best beacon must clear this SINR (sidelobe reject)
	TrackTriggerDB    float64  // H: neighbor RSS drop that triggers an adjacent switch
	LossDB            float64  // D: neighbor RSS drop that declares the beam lost
	HandoverMarginDB  float64  // E: T — neighbor must beat serving by this much
	TriggerBursts     int      // E: margin must hold for this many consecutive neighbor bursts
	ProhibitAfterHO   sim.Time // E: quiet period after a completed handover (anti-ping-pong)
	EdgeRSSdBm        float64  // B: begin neighbor search when serving RSS sinks below this
	AlwaysSearch      bool     // B: search unconditionally (cell-edge scenarios)
	NeighborMissLimit int      // undetected neighbor bursts tolerated before D
	RetriggerHoldoff  sim.Time // cool-down before E may fire again after an abandoned attempt

	// NeighborRefresh is an extension beyond the paper: if the tracked
	// neighbor has stayed strictly worse than the serving cell (by the
	// handover margin) for this long, abandon it and search again — in
	// multi-cell deployments the first cell found is not always the
	// right handover target. Zero disables (paper-faithful behaviour).
	NeighborRefresh sim.Time

	Rach mac.RachConfig
}

// DefaultConfig returns the paper's protocol constants.
func DefaultConfig() Config {
	return Config{
		Serving:           beamsurfer.DefaultConfig(),
		SweepPeriod:       20 * sim.Millisecond,
		ConfirmDetections: 2,
		ConfirmSNRdB:      14,
		TrackTriggerDB:    3,
		LossDB:            10,
		HandoverMarginDB:  3,
		TriggerBursts:     5,
		ProhibitAfterHO:   1 * sim.Second,
		EdgeRSSdBm:        -60,
		NeighborMissLimit: 4,
		RetriggerHoldoff:  100 * sim.Millisecond,
		Rach:              mac.DefaultRachConfig(),
	}
}

// EventType enumerates protocol events for tracing and experiments.
type EventType int

// Protocol events. The letters reference the paper's transitions.
const (
	EvSearchStarted     EventType = iota // B
	EvNeighborFound                      // C
	EvNeighborSwitch                     // H
	EvNeighborLost                       // D
	EvHandoverTriggered                  // E
	EvServingProbe                       // S-RBA entered
	EvServingSwitch                      // mobile-side switch applied
	EvCABMRequested                      // F
	EvCABMApplied                        // BS switched (ack)
	EvServingLost                        // G exhausted / link dead
	EvPreambleSent
	EvRARReceived
	EvHandoverComplete
	EvHandoverAbandoned
	EvHardHandover
	EvNeighborRefresh // extension: useless tracked neighbor abandoned
)

var eventNames = map[EventType]string{
	EvSearchStarted: "search-started", EvNeighborFound: "neighbor-found",
	EvNeighborSwitch: "neighbor-switch", EvNeighborLost: "neighbor-lost",
	EvHandoverTriggered: "handover-triggered", EvServingProbe: "serving-probe",
	EvServingSwitch: "serving-switch", EvCABMRequested: "cabm-requested",
	EvCABMApplied: "cabm-applied", EvServingLost: "serving-lost",
	EvPreambleSent: "preamble-sent", EvRARReceived: "rar-received",
	EvHandoverComplete: "handover-complete", EvHandoverAbandoned: "handover-abandoned",
	EvHardHandover: "hard-handover", EvNeighborRefresh: "neighbor-refresh",
}

// String implements fmt.Stringer.
func (e EventType) String() string {
	if s, ok := eventNames[e]; ok {
		return s
	}
	return "event(?)"
}

// Event is one protocol occurrence.
type Event struct {
	At    sim.Time
	Type  EventType
	Cell  int
	Beam  antenna.BeamID
	Value float64 // context-dependent (RSS, dwell count, ...)
}

// NeighborState is the neighbor-side mode.
type NeighborState int

// Neighbor-side modes.
const (
	NIdle NeighborState = iota
	NSearching
	NTracking
)

// Action is an uplink transmission the tracker wants performed. The
// runtime converts actions to MAC messages and applies link physics.
type Action struct {
	SwitchReq *beamsurfer.SwitchReq
	Report    *ReportAction
	Preamble  *PreambleAction
	ConnReq   *ConnReqAction
}

// ReportAction is a serving-cell measurement report (keeps the
// connection alive and feeds the BS scheduler).
type ReportAction struct {
	Cell   int
	Tx, Rx antenna.BeamID
	RSSdBm float64
}

// PreambleAction is a RACH Msg1 toward the handover target.
type PreambleAction struct {
	Cell   int
	BSBeam antenna.BeamID // SSB beam the preamble occasion is tied to
	UEBeam antenna.BeamID // mobile transmit beam (beam correspondence)
}

// ConnReqAction is Msg3: the connection/context-transfer request.
type ConnReqAction struct {
	Cell   int
	Source int // serving cell whose context should transfer
	BSBeam antenna.BeamID
	UEBeam antenna.BeamID
}

// Tracker is the executable Silent Tracker protocol instance for one
// mobile.
type Tracker struct {
	Cfg    Config
	ueBook *antenna.Codebook
	books  map[int]*antenna.Codebook // BS codebook per cell

	serving     *beamsurfer.Tracker
	servingCell int
	servingDead bool

	search *Search
	nState NeighborState
	nCell  int
	nTx    antenna.BeamID
	nRx    antenna.BeamID
	nRef   float64
	nCur   float64
	nMiss  int
	nTrig  int

	probing    bool
	probeBeams []antenna.BeamID
	probeRSS   []float64
	probeIdx   int
	probeBase  float64

	rach         *mac.Rach
	hoTarget     int // -1 when no handover in progress
	hardPending  bool
	lastAbandon  sim.Time
	lastHO       sim.Time // completion time of the previous handover
	triggerCount int      // consecutive bursts the E margin has held

	actions []Action
	onEvent func(Event)

	// Milestones for experiments (zero until reached).
	SearchStartedAt sim.Time
	FoundAt         sim.Time
	TriggeredAt     sim.Time
	CompletedAt     sim.Time
	SearchDwells    int // dwells of the most recent completed search

	// Counters.
	NeighborSwitches int // H
	NeighborLosses   int // D
	Reacquisitions   int
	HandoversDone    int
	HardHandovers    int
	Refreshes        int // NeighborRefresh extension

	uselessSince sim.Time // when the tracked neighbor last stopped being useful
	avoidCell    int      // refresh: cell to ignore while re-searching
	avoidUntil   sim.Time
}

// NewTracker builds a Silent Tracker for a mobile already connected to
// servingCell on (tx, rx) with the given initial serving RSS.
func NewTracker(cfg Config, ueBook *antenna.Codebook, servingCell int, servingBook *antenna.Codebook, tx, rx antenna.BeamID, initRSS float64, seed int64) *Tracker {
	t := &Tracker{
		Cfg:         cfg,
		ueBook:      ueBook,
		books:       map[int]*antenna.Codebook{servingCell: servingBook},
		serving:     beamsurfer.New(cfg.Serving, servingCell, ueBook, servingBook, tx, rx, initRSS),
		servingCell: servingCell,
		search:      NewSearch(ueBook, cfg.SweepPeriod, rng.Stream(seed, "core/search")),
		rach:        mac.NewRach(cfg.Rach, rng.Stream(seed, "core/rach")),
		hoTarget:    -1,
		nCell:       -1,
		lastAbandon: -1,
		lastHO:      -1,
		avoidCell:   -1,
		onEvent:     func(Event) {},
	}
	return t
}

// AddCell registers a candidate cell's codebook (needed to interpret
// its measurement rows).
func (t *Tracker) AddCell(id int, book *antenna.Codebook) { t.books[id] = book }

// SetEventHook installs a trace callback. Passing nil restores the
// no-op hook.
func (t *Tracker) SetEventHook(fn func(Event)) {
	if fn == nil {
		fn = func(Event) {}
	}
	t.onEvent = fn
}

func (t *Tracker) emit(ev Event) { t.onEvent(ev) }

// ServingCell returns the current serving cell ID.
func (t *Tracker) ServingCell() int { return t.servingCell }

// Serving exposes the BeamSurfer instance (read-mostly; tests and
// experiments inspect it).
func (t *Tracker) Serving() *beamsurfer.Tracker { return t.serving }

// Neighbor returns the neighbor-side mode and, when tracking, the
// tracked cell and beam pair.
func (t *Tracker) Neighbor() (NeighborState, int, antenna.BeamID, antenna.BeamID) {
	return t.nState, t.nCell, t.nTx, t.nRx
}

// NeighborRSS returns the tracked neighbor's RSS estimate.
func (t *Tracker) NeighborRSS() float64 { return t.nCur }

// HandoverTarget returns the in-progress handover target, or -1.
func (t *Tracker) HandoverTarget() int { return t.hoTarget }

// Rach exposes the random access procedure state.
func (t *Tracker) Rach() *mac.Rach { return t.rach }

// PaperState maps the tracker's composite status onto the five states
// of the paper's Fig. 2b machine.
func (t *Tracker) PaperState() State {
	switch t.nState {
	case NSearching:
		return NAR
	case NTracking:
		// Neighbor-side adaptation is the figure's N-RBA self-loop.
		if t.serving.CurrentPhase() == beamsurfer.PhaseAwaitAck {
			return CABM
		}
		if t.serving.CurrentPhase() == beamsurfer.PhaseProbeA ||
			t.serving.CurrentPhase() == beamsurfer.PhaseProbeB {
			return SRBA
		}
		return NRBA
	}
	switch t.serving.CurrentPhase() {
	case beamsurfer.PhaseProbeA, beamsurfer.PhaseProbeB:
		return SRBA
	case beamsurfer.PhaseAwaitAck:
		return CABM
	default:
		return EO
	}
}

// Actions drains pending uplink actions.
func (t *Tracker) Actions() []Action {
	a := t.actions
	t.actions = nil
	return a
}

// PlanBurst returns the receive beam to use for a given cell's
// upcoming sync burst, and whether to listen at all. The runtime
// resolves radio contention (serving first).
func (t *Tracker) PlanBurst(now sim.Time, cellID int) (antenna.BeamID, bool) {
	if cellID == t.servingCell && !t.servingDead {
		return t.serving.PlanBurst(now), true
	}
	switch t.nState {
	case NTracking:
		if cellID != t.nCell {
			return antenna.NoBeam, false
		}
		if t.probing {
			return t.probeBeams[t.probeIdx], true
		}
		return t.nRx, true
	case NSearching:
		// Any non-serving cell's burst may land inside the dwell.
		return t.search.Beam(now), true
	}
	return antenna.NoBeam, false
}

// OnBurst feeds the tracker a measurement row from a burst it planned.
func (t *Tracker) OnBurst(now sim.Time, cellID int, row []phy.Measurement) {
	if cellID == t.servingCell && !t.servingDead {
		t.onServingBurst(now, row)
		return
	}
	switch t.nState {
	case NSearching:
		t.onSearchBurst(now, cellID, row)
	case NTracking:
		if cellID == t.nCell {
			t.onTrackBurst(now, row)
		}
	}
}

func (t *Tracker) onServingBurst(now sim.Time, row []phy.Measurement) {
	prevPhase := t.serving.CurrentPhase()
	prevTx, prevRx := t.serving.Beams()
	t.serving.OnBurst(now, row)
	t.forwardServingActions(now, prevPhase)
	if _, rx := t.serving.Beams(); rx != prevRx {
		t.emit(Event{At: now, Type: EvServingSwitch, Cell: t.servingCell, Beam: rx})
	}
	if tx, _ := t.serving.Beams(); tx != prevTx {
		t.emit(Event{At: now, Type: EvCABMApplied, Cell: t.servingCell, Beam: tx})
	}
	if t.serving.Lost() {
		t.onServingLost(now)
		return
	}
	// Liveness/measurement report back to the serving cell.
	tx, rx := t.serving.Beams()
	t.actions = append(t.actions, Action{Report: &ReportAction{
		Cell: t.servingCell, Tx: tx, Rx: rx, RSSdBm: t.serving.RSS(),
	}})
	// Transition B: start the neighbor search at the cell edge.
	if t.nState == NIdle &&
		(t.Cfg.AlwaysSearch || t.serving.RSS() < t.Cfg.EdgeRSSdBm) {
		t.startSearch(now, antenna.NoBeam)
	}
}

func (t *Tracker) forwardServingActions(now sim.Time, prevPhase beamsurfer.Phase) {
	for _, a := range t.serving.Actions() {
		if a.SwitchReq != nil {
			t.actions = append(t.actions, Action{SwitchReq: a.SwitchReq})
			t.emit(Event{At: now, Type: EvCABMRequested, Cell: t.servingCell,
				Beam: a.SwitchReq.ProposedTx})
		}
	}
	cur := t.serving.CurrentPhase()
	if prevPhase == beamsurfer.PhaseSteady &&
		(cur == beamsurfer.PhaseProbeA || cur == beamsurfer.PhaseProbeB) {
		t.emit(Event{At: now, Type: EvServingProbe, Cell: t.servingCell})
	}
}

func (t *Tracker) startSearch(now sim.Time, from antenna.BeamID) {
	t.nState = NSearching
	t.search.Begin(now, from)
	t.SearchStartedAt = now
	t.emit(Event{At: now, Type: EvSearchStarted, Cell: -1, Beam: from})
}

func (t *Tracker) onSearchBurst(now sim.Time, cellID int, row []phy.Measurement) {
	if cellID == t.servingCell {
		// The search is for *neighbor* cells; the serving cell (even a
		// freshly lost one) is not a handover candidate.
		return
	}
	if cellID == t.avoidCell && now < t.avoidUntil {
		return // refresh extension: give other cells a chance
	}
	detected := 0
	bestRSS, bestSINR := -1e9, -1e9
	var bestTx antenna.BeamID = antenna.NoBeam
	for _, m := range row {
		if m.Detected {
			detected++
			if m.RSSdBm > bestRSS {
				bestRSS, bestTx = m.RSSdBm, m.TxBeam
			}
			if sinr := m.SINRdB(); sinr > bestSINR {
				bestSINR = sinr
			}
		}
	}
	// The quality gate rejects sidelobe "discoveries": a beam found
	// through a sidelobe decodes occasionally but cannot be tracked.
	if detected < t.Cfg.ConfirmDetections || bestSINR < t.Cfg.ConfirmSNRdB {
		return
	}
	// Transition C: found a neighbor cell beam. The receive beam is
	// taken from the measurement row itself — the dwell clock may have
	// advanced between the burst being planned and this callback, and
	// recording the wrong beam would start tracking on a beam that
	// never heard anything.
	t.nState = NTracking
	t.nCell = cellID
	t.nTx = bestTx
	t.nRx = row[0].RxBeam
	t.nRef, t.nCur = bestRSS, bestRSS
	t.nMiss = 0
	t.probing = false
	t.SearchDwells = t.search.Dwells
	t.FoundAt = now
	t.search.Stop()
	t.emit(Event{At: now, Type: EvNeighborFound, Cell: cellID, Beam: bestTx,
		Value: float64(t.SearchDwells)})
	// Transition E may already hold at discovery (and a serving-loss
	// handover may have been waiting for exactly this beam).
	t.maybeTrigger(now)
}

func (t *Tracker) onTrackBurst(now sim.Time, row []phy.Measurement) {
	m, ok := bestDetected(row)
	if t.probing {
		t.probeStep(now, m, ok)
		return
	}
	if !ok {
		t.nMiss++
		t.nCur -= t.Cfg.TrackTriggerDB // decay the estimate on a miss
		if t.nMiss >= t.Cfg.NeighborMissLimit || t.nRef-t.nCur > t.Cfg.LossDB {
			t.neighborLost(now)
		}
		return
	}
	t.nMiss = 0
	// The neighbor sweeps every transmit beam each burst, so the best
	// transmit beam updates for free — tx-side tracking is silent.
	t.nTx = m.TxBeam
	t.nCur = t.nCur*0.4 + m.RSSdBm*0.6
	// Slow symmetric reference, same rationale as BeamSurfer's: fades
	// wander around it, geometry changes open a persistent gap.
	t.nRef = t.nRef*0.95 + t.nCur*0.05
	drop := t.nRef - t.nCur
	switch {
	case drop > t.Cfg.LossDB:
		// Transition D.
		t.neighborLost(now)
		return
	case drop > t.Cfg.TrackTriggerDB:
		// Transition H (debounced one burst against fades): probe the
		// directionally adjacent receive beams.
		t.nTrig++
		if t.nTrig >= 2 {
			t.nTrig = 0
			adj := t.ueBook.Adjacent(t.nRx)
			if len(adj) > 0 {
				t.probing = true
				t.probeBeams = adj
				t.probeRSS = make([]float64, len(adj))
				t.probeIdx = 0
				t.probeBase = t.nCur
			}
		}
	default:
		t.nTrig = 0
	}
	t.maybeTrigger(now)
	t.maybeRefresh(now)
}

// maybeRefresh implements the NeighborRefresh extension: drop a
// tracked neighbor that has been strictly useless for the configured
// window and search for a better one.
func (t *Tracker) maybeRefresh(now sim.Time) {
	if t.Cfg.NeighborRefresh <= 0 || t.nState != NTracking || t.hoTarget >= 0 || t.servingDead {
		return
	}
	if t.nCur+t.Cfg.HandoverMarginDB >= t.serving.RSS() {
		t.uselessSince = 0
		return
	}
	if t.uselessSince == 0 {
		t.uselessSince = now
		return
	}
	if now-t.uselessSince < t.Cfg.NeighborRefresh {
		return
	}
	t.Refreshes++
	t.emit(Event{At: now, Type: EvNeighborRefresh, Cell: t.nCell, Value: t.serving.RSS() - t.nCur})
	t.uselessSince = 0
	// Ignore the abandoned cell for two full scans so the search can
	// actually discover somebody else.
	t.avoidCell = t.nCell
	t.avoidUntil = now + 2*sim.Time(t.ueBook.Size())*t.Cfg.SweepPeriod
	t.nState = NSearching
	t.nCell = -1
	t.probing = false
	t.search.Begin(now, antenna.NoBeam) // full scan: look for a different cell
}

func (t *Tracker) probeStep(now sim.Time, m phy.Measurement, ok bool) {
	rss := t.probeBase - t.Cfg.TrackTriggerDB
	if ok {
		rss = m.RSSdBm
	}
	t.probeRSS[t.probeIdx] = rss
	t.probeIdx++
	if t.probeIdx < len(t.probeBeams) {
		return
	}
	t.probing = false
	bestIdx, bestRSS := -1, t.probeBase
	for i, r := range t.probeRSS {
		if r > bestRSS {
			bestIdx, bestRSS = i, r
		}
	}
	if bestIdx >= 0 {
		t.nRx = t.probeBeams[bestIdx]
		t.nCur = bestRSS
		if t.nCur > t.nRef {
			t.nRef = t.nCur
		}
		t.NeighborSwitches++
		t.emit(Event{At: now, Type: EvNeighborSwitch, Cell: t.nCell, Beam: t.nRx,
			Value: bestRSS})
	} else if t.nRef-t.nCur > t.Cfg.LossDB {
		t.neighborLost(now)
		return
	}
	t.maybeTrigger(now)
}

func (t *Tracker) neighborLost(now sim.Time) {
	t.NeighborLosses++
	t.emit(Event{At: now, Type: EvNeighborLost, Cell: t.nCell, Beam: t.nRx,
		Value: t.nRef - t.nCur})
	last := t.nRx
	t.nState = NSearching
	t.nCell = -1
	t.probing = false
	t.Reacquisitions++
	// Re-acquisition: scan outward from the last good beam.
	t.search.Begin(now, last)
	// Abandon an in-flight random access: its beam is gone.
	if t.hoTarget >= 0 {
		t.rach.Reset()
		t.hoTarget = -1
		t.lastAbandon = now
		t.emit(Event{At: now, Type: EvHandoverAbandoned, Cell: t.nCell})
	}
}

// maybeTrigger evaluates transition E.
func (t *Tracker) maybeTrigger(now sim.Time) {
	if t.hoTarget >= 0 || t.nState != NTracking {
		return
	}
	if t.lastAbandon >= 0 && now-t.lastAbandon < t.Cfg.RetriggerHoldoff {
		return
	}
	if t.servingDead {
		// Forced: the serving link is gone, there is nothing to compare.
		t.triggerHandover(now, true)
		return
	}
	if t.lastHO >= 0 && now-t.lastHO < t.Cfg.ProhibitAfterHO {
		return
	}
	if t.nCur > t.serving.RSS()+t.Cfg.HandoverMarginDB {
		t.triggerCount++
		if t.triggerCount >= t.Cfg.TriggerBursts {
			t.triggerHandover(now, false)
		}
	} else {
		t.triggerCount = 0
	}
}

func (t *Tracker) triggerHandover(now sim.Time, forced bool) {
	t.hoTarget = t.nCell
	t.triggerCount = 0
	t.TriggeredAt = now
	t.rach.Start(now)
	v := 0.0
	if forced {
		v = 1
	}
	t.emit(Event{At: now, Type: EvHandoverTriggered, Cell: t.nCell, Value: v})
}

func (t *Tracker) onServingLost(now sim.Time) {
	if t.servingDead {
		return
	}
	t.servingDead = true
	t.emit(Event{At: now, Type: EvServingLost, Cell: t.servingCell})
	switch t.nState {
	case NTracking:
		// Soft handover: the silently tracked beam saves us.
		if t.hoTarget < 0 {
			t.triggerHandover(now, true)
		}
	case NSearching:
		// No aligned beam at the moment of loss: service interrupts.
		// The search continues and the handover fires on C, but the
		// damage — a hard handover — is already done.
		t.hardPending = true
		t.HardHandovers++
		t.emit(Event{At: now, Type: EvHardHandover, Cell: t.servingCell})
	default:
		// No neighbor knowledge at all: this is the hard-handover case
		// Silent Tracker exists to avoid.
		t.hardPending = true
		t.HardHandovers++
		t.emit(Event{At: now, Type: EvHardHandover, Cell: t.servingCell})
		t.startSearch(now, antenna.NoBeam)
	}
}

// PollRach is called by the runtime at each RACH occasion of the
// handover target (only when the mobile holds timing for it).
func (t *Tracker) PollRach(now sim.Time) {
	if t.hoTarget < 0 {
		return
	}
	switch t.rach.Poll(now) {
	case mac.ActionSendPreamble:
		t.actions = append(t.actions, Action{Preamble: &PreambleAction{
			Cell: t.hoTarget, BSBeam: t.nTx, UEBeam: t.nRx,
		}})
		t.emit(Event{At: now, Type: EvPreambleSent, Cell: t.hoTarget, Beam: t.nTx})
	}
	if t.rach.State() == mac.RachFailed {
		t.rach.Reset()
		t.hoTarget = -1
		t.lastAbandon = now
		t.emit(Event{At: now, Type: EvHandoverAbandoned, Cell: t.nCell})
		if t.servingDead {
			// Keep trying: re-acquire a (possibly better) beam first.
			t.neighborLost(now)
		}
	}
}

// OnDownlink feeds the tracker a decoded downlink control message.
func (t *Tracker) OnDownlink(now sim.Time, m mac.Message) {
	switch m.Type {
	case mac.TypeBeamSwitchAck:
		if int(m.Cell) == t.servingCell {
			ack, err := mac.UnmarshalBeamSwitchReq(m.Payload)
			if err != nil {
				return
			}
			t.serving.OnSwitchAck(now, antenna.BeamID(ack.ProposedTx))
		}
	case mac.TypeRAR:
		if int(m.Cell) != t.hoTarget {
			return
		}
		rar, err := mac.UnmarshalRAR(m.Payload)
		if err != nil {
			return
		}
		if t.rach.OnRAR(now, rar) == mac.ActionSendConnReq {
			t.emit(Event{At: now, Type: EvRARReceived, Cell: t.hoTarget})
			t.actions = append(t.actions, Action{ConnReq: &ConnReqAction{
				Cell:   t.hoTarget,
				Source: t.servingCell,
				BSBeam: t.nTx,
				UEBeam: t.nRx,
			}})
		}
	case mac.TypeConnSetup:
		if int(m.Cell) != t.hoTarget {
			return
		}
		if t.rach.OnSetup(now) {
			t.completeHandover(now)
		}
	}
}

func (t *Tracker) completeHandover(now sim.Time) {
	target := t.hoTarget
	t.HandoversDone++
	t.CompletedAt = now
	t.lastHO = now
	t.triggerCount = 0
	book := t.books[target]
	t.serving.Reinit(target, book, t.nTx, t.nRx, t.nCur)
	t.servingCell = target
	t.servingDead = false
	t.hardPending = false
	t.hoTarget = -1
	t.rach.Reset()
	t.nState = NIdle
	t.nCell = -1
	t.emit(Event{At: now, Type: EvHandoverComplete, Cell: target, Beam: t.nTx})
}

// ForceTrack puts the tracker directly into N-RBA on the given cell
// and beam pair, bypassing N-A/R. This is a genie hook for the
// baseline comparison (an oracle that knows the neighbor's beams
// without searching); the protocol itself never calls it.
func (t *Tracker) ForceTrack(now sim.Time, cellID int, tx, rx antenna.BeamID, rss float64) {
	t.search.Stop()
	t.nState = NTracking
	t.nCell = cellID
	t.nTx, t.nRx = tx, rx
	t.nRef, t.nCur = rss, rss
	t.nMiss = 0
	t.probing = false
	if t.SearchStartedAt == 0 {
		t.SearchStartedAt = now
	}
	t.FoundAt = now
	t.emit(Event{At: now, Type: EvNeighborFound, Cell: cellID, Beam: tx, Value: 0})
}

func bestDetected(row []phy.Measurement) (phy.Measurement, bool) {
	best, ok := phy.Measurement{RSSdBm: -1e9}, false
	for _, m := range row {
		if m.Detected && m.RSSdBm > best.RSSdBm {
			best, ok = m, true
		}
	}
	return best, ok
}
