package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"silenttracker/internal/campaign"
	"silenttracker/st"
)

// span is one timed call perfbench made into a layer, or one
// boundary read back from the program's own telemetry.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a request's root span
	Req    string `json:"req"`    // request the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced path only pays a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds a finished span and returns its id (0 on a nil tracer).
func (t *tracer) record(name, req string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// open starts a span whose children are recorded before it ends;
// close sets its end.
func (t *tracer) open(name, req string, parent int, start time.Time) int {
	return t.record(name, req, parent, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON in dir/spans.json.
func (t *tracer) write(dir string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), buf, 0o644)
}

// medianMS and medianUS summarise a span family.
func medianMS(ds []time.Duration) float64 { return median(floats(ds, ms)) }
func medianUS(ds []time.Duration) float64 { return median(floats(ds, us)) }

func floats(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// timedStore is the traced run's st.WithStore backend: it times each
// Get and Put of the same in-memory store that st.WithMemCache builds
// for the untraced run. st exports no constructor for that store, so
// it is built with campaign.NewMemStore, the call WithMemCache makes.
type timedStore struct {
	mem *campaign.MemStore
	tr  *tracer

	mu        sync.Mutex
	req       string // request in flight; requests run one at a time
	parent    int    // its st.Session.Run span
	putFailed int
}

func newTimedStore(tr *tracer) *timedStore {
	return &timedStore{mem: campaign.NewMemStore(memBudget), tr: tr}
}

// attach parents the following store calls to a request's Run span;
// with no request (req "") calls go unrecorded.
func (s *timedStore) attach(req string, parent int) {
	s.mu.Lock()
	s.req, s.parent = req, parent
	s.mu.Unlock()
}

func (s *timedStore) current() (string, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.req, s.parent
}

func (s *timedStore) Get(hash string) (st.Metrics, bool) {
	t0 := time.Now()
	m, ok := s.mem.Get(hash)
	t1 := time.Now()
	if req, parent := s.current(); req != "" {
		s.tr.record("campaign.store.get", req, parent, t0, t1)
	}
	return st.Metrics(m), ok
}

func (s *timedStore) Put(hash string, m st.Metrics) error {
	t0 := time.Now()
	err := s.mem.Put(hash, campaign.Metrics(m))
	t1 := time.Now()
	if req, parent := s.current(); req != "" {
		s.tr.record("campaign.store.put", req, parent, t0, t1)
	}
	if err != nil {
		s.mu.Lock()
		s.putFailed++
		s.mu.Unlock()
	}
	return err
}

func (s *timedStore) Stats() []st.TierStats {
	var out []st.TierStats
	for _, t := range s.mem.Stats() {
		out = append(out, st.TierStats{Tier: t.Tier, Hits: t.Hits, Misses: t.Misses,
			Corrupt: t.Corrupt, Evicted: t.Evicted, Errors: t.Errors})
	}
	return out
}

func (s *timedStore) Close() error { return s.mem.Close() }
