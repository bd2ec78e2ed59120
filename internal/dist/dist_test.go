package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"silenttracker/internal/obs"
	"silenttracker/st"
)

// fakeUnits fabricates a unit list for protocol-only tests: the
// coordinator schedules indices, it never inspects trial bodies.
func fakeUnits(n int) []st.UnitRef {
	units := make([]st.UnitRef, n)
	for i := range units {
		units[i] = st.UnitRef{Index: i, Hash: "hash-0"}
	}
	return units
}

// coordServer mounts a coordinator's handler the way stserve does.
func coordServer(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/dist/", http.StripPrefix("/dist", c.Handler()))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body any, into any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s reply: %v", url, err)
		}
	}
	return resp
}

func counterValue(reg *obs.Registry, name string) float64 {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// waitFor spins until cond, which reads coordinator state under its
// lock, holds; it fails the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// startDistribute runs Distribute in the background and returns a
// channel carrying its error once the coordinator lists the run, so a
// lease the test posts next cannot beat the registration and come
// back empty.
func startDistribute(t *testing.T, ctx context.Context, c *Coordinator, n int) <-chan error {
	t.Helper()
	c.mu.Lock()
	id := "run-" + strconv.FormatInt(c.seq+1, 10)
	c.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		done <- c.Distribute(ctx, st.JobRequest{Experiment: "fake"}, fakeUnits(n))
	}()
	waitFor(t, "the coordinator to list "+id, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, listed := c.runs[id]
		return listed
	})
	return done
}

// TestLeaseProtocol drives the happy path over real HTTP: a run's
// units are granted in batches, completions retire them, and
// Distribute returns once every unit is done.
func TestLeaseProtocol(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{LeaseBatch: 16, MaxInflight: 4, Obs: reg})
	srv := coordServer(t, c)

	done := startDistribute(t, context.Background(), c, 40)

	leases := 0
	for {
		var grant st.LeaseGrant
		postJSON(t, srv.URL+"/dist/lease", st.LeaseRequest{Worker: "w1"}, &grant)
		if grant.Run == "" {
			break
		}
		leases++
		if grant.Job == nil || grant.Job.Experiment != "fake" {
			t.Fatalf("grant carries job %+v, want the run's job", grant.Job)
		}
		if want := st.UnitsFingerprint(fakeUnits(40)); grant.Fingerprint != want {
			t.Fatalf("fingerprint = %q, want the expansion's fingerprint %q", grant.Fingerprint, want)
		}
		if got := unitCount(grant.Units); got > 16 {
			t.Fatalf("granted %d units, want ≤ batch 16", got)
		}
		postJSON(t, srv.URL+"/dist/complete",
			st.UnitReport{Worker: "w1", Run: grant.Run, Lease: grant.Lease, Units: grant.Units}, nil)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Distribute: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Distribute did not return after all units completed")
	}
	if leases != 3 { // 40 units / batch 16
		t.Errorf("took %d leases, want 3", leases)
	}
	if got := counterValue(reg, metricLeases); got != 3 {
		t.Errorf("%s = %v, want 3", metricLeases, got)
	}
	if got := counterValue(reg, metricCompletes); got != 3 {
		t.Errorf("%s = %v, want 3", metricCompletes, got)
	}
}

// TestBackpressure pins the admission contract: a worker at the
// in-flight lease bound gets 429 + Retry-After, and completing a
// lease frees the slot.
func TestBackpressure(t *testing.T) {
	c := New(Config{LeaseBatch: 4, MaxInflight: 1, RetryAfter: 2 * time.Second})
	srv := coordServer(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	done := startDistribute(t, ctx, c, 100)
	defer func() { cancel(); <-done }() // the run never finishes; reap the waiter

	var first st.LeaseGrant
	postJSON(t, srv.URL+"/dist/lease", st.LeaseRequest{Worker: "w1"}, &first)
	if first.Run == "" {
		t.Fatal("first lease got no work")
	}
	resp := postJSON(t, srv.URL+"/dist/lease", st.LeaseRequest{Worker: "w1"}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second lease = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Errorf("Retry-After = %q, want %q", resp.Header.Get("Retry-After"), "2")
	}
	// Another worker is not affected by w1's bound.
	var other st.LeaseGrant
	postJSON(t, srv.URL+"/dist/lease", st.LeaseRequest{Worker: "w2"}, &other)
	if other.Run == "" {
		t.Error("w2 blocked by w1's in-flight bound")
	}
	// Completion frees w1's slot.
	postJSON(t, srv.URL+"/dist/complete",
		st.UnitReport{Worker: "w1", Run: first.Run, Lease: first.Lease, Units: first.Units}, nil)
	var again st.LeaseGrant
	postJSON(t, srv.URL+"/dist/lease", st.LeaseRequest{Worker: "w1"}, &again)
	if again.Run == "" {
		t.Error("w1 still blocked after completing its lease")
	}
}

// TestDistributeCancellation: a cancelled context unblocks Distribute
// with ctx.Err() and unregisters the run.
func TestDistributeCancellation(t *testing.T) {
	c := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := startDistribute(t, ctx, c, 10)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Distribute = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Distribute ignored cancellation")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.runs) != 0 {
		t.Errorf("%d runs still registered after cancellation", len(c.runs))
	}
}

// TestLeaseExpiryRequeues: an uncompleted lease times out and its
// units are re-leased to the next worker; the dead worker's late
// completion of an expired lease is harmless.
func TestLeaseExpiryRequeues(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{LeaseTTL: 100 * time.Millisecond, LeaseBatch: 64, Obs: reg})
	srv := coordServer(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := startDistribute(t, ctx, c, 8)

	var dead st.LeaseGrant
	postJSON(t, srv.URL+"/dist/lease", st.LeaseRequest{Worker: "doomed"}, &dead)
	if unitCount(dead.Units) != 8 {
		t.Fatalf("first lease got %d units, want all 8", unitCount(dead.Units))
	}

	// The doomed worker never completes nor heartbeats; once the TTL
	// passes, the expiry scan re-queues all 8 units and a live worker
	// gets them whole (from the pending queue — not a steal, which
	// would split them). The live worker asks only once the scan has
	// revoked the lease; asking between the TTL and the next scan
	// would steal half of it instead.
	waitFor(t, "the expiry scan to revoke the doomed lease", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.runs[dead.Run].leases) == 0
	})
	var release st.LeaseGrant
	postJSON(t, srv.URL+"/dist/lease", st.LeaseRequest{Worker: "live"}, &release)
	if release.Run == "" || unitCount(release.Units) != 8 {
		t.Fatalf("live worker got grant %v, want the full expired lease", release.Units)
	}
	postJSON(t, srv.URL+"/dist/complete",
		st.UnitReport{Worker: "live", Run: release.Run, Lease: release.Lease, Units: release.Units}, nil)
	if err := <-done; err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	if got := counterValue(reg, metricExpired); got < 1 {
		t.Errorf("%s = %v, want ≥ 1", metricExpired, got)
	}
	if got := counterValue(reg, metricReassigned); got < 8 {
		t.Errorf("%s = %v, want ≥ 8", metricReassigned, got)
	}
	// The dead worker's zombie completion: unknown lease, all units
	// already done — a no-op, not a panic or a double fold.
	postJSON(t, srv.URL+"/dist/complete",
		st.UnitReport{Worker: "doomed", Run: dead.Run, Lease: dead.Lease, Units: dead.Units}, nil)
}

// TestHeartbeatExtendsLease: a heartbeating worker's lease survives
// well past the TTL; a worker heartbeating for a run it holds no
// lease in is told the run expired.
func TestHeartbeatExtendsLease(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{LeaseTTL: 150 * time.Millisecond, Obs: reg})
	srv := coordServer(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := startDistribute(t, ctx, c, 4)

	var grant st.LeaseGrant
	postJSON(t, srv.URL+"/dist/lease", st.LeaseRequest{Worker: "w1"}, &grant)
	if grant.Run == "" {
		t.Fatal("no grant")
	}
	// Outlive 4 TTLs on heartbeats alone.
	for i := 0; i < 12; i++ {
		var ack st.HeartbeatAck
		postJSON(t, srv.URL+"/dist/heartbeat", st.Heartbeat{Worker: "w1", Runs: []string{grant.Run}}, &ack)
		if len(ack.Expired) != 0 {
			t.Fatalf("heartbeat %d reported expiry %v while lease was being refreshed", i, ack.Expired)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := counterValue(reg, metricExpired); got != 0 {
		t.Errorf("%s = %v, want 0 (heartbeats must extend the lease)", metricExpired, got)
	}
	// A stranger heartbeating for that run holds no lease: expired.
	var ack st.HeartbeatAck
	postJSON(t, srv.URL+"/dist/heartbeat", st.Heartbeat{Worker: "stranger", Runs: []string{grant.Run}}, &ack)
	if len(ack.Expired) != 1 || ack.Expired[0] != grant.Run {
		t.Errorf("stranger heartbeat ack = %+v, want the run expired", ack)
	}
	postJSON(t, srv.URL+"/dist/complete",
		st.UnitReport{Worker: "w1", Run: grant.Run, Lease: grant.Lease, Units: grant.Units}, nil)
	if err := <-done; err != nil {
		t.Fatalf("Distribute: %v", err)
	}
}

// TestWorkStealing: once the pending queue drains into one straggler
// lease, an idle worker's request splits the straggler's tail instead
// of going hungry, and the overlapping completions fold exactly once.
func TestWorkStealing(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{LeaseBatch: 64, Obs: reg})
	srv := coordServer(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := startDistribute(t, ctx, c, 32)

	var slow st.LeaseGrant
	postJSON(t, srv.URL+"/dist/lease", st.LeaseRequest{Worker: "slow"}, &slow)
	if unitCount(slow.Units) != 32 {
		t.Fatalf("straggler leased %d units, want all 32", unitCount(slow.Units))
	}
	var thief st.LeaseGrant
	postJSON(t, srv.URL+"/dist/lease", st.LeaseRequest{Worker: "thief"}, &thief)
	if thief.Run != slow.Run {
		t.Fatalf("thief got run %q, want a steal from %q", thief.Run, slow.Run)
	}
	if got := unitCount(thief.Units); got != 16 {
		t.Errorf("stole %d units, want the tail half (16)", got)
	}
	if got := counterValue(reg, metricSteals); got != 1 {
		t.Errorf("%s = %v, want 1", metricSteals, got)
	}
	// Both complete their full grants — the stolen tail is reported
	// twice. Done-bit idempotency must still converge to exactly one
	// finished run.
	postJSON(t, srv.URL+"/dist/complete",
		st.UnitReport{Worker: "thief", Run: thief.Run, Lease: thief.Lease, Units: thief.Units}, nil)
	postJSON(t, srv.URL+"/dist/complete",
		st.UnitReport{Worker: "slow", Run: slow.Run, Lease: slow.Lease, Units: slow.Units}, nil)
	if err := <-done; err != nil {
		t.Fatalf("Distribute: %v", err)
	}
}

// TestReportedFailureRequeues: a worker reporting an error on its
// lease sends the units back to the queue for someone else.
func TestReportedFailureRequeues(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{LeaseBatch: 8, Obs: reg})
	srv := coordServer(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := startDistribute(t, ctx, c, 8)

	var g1 st.LeaseGrant
	postJSON(t, srv.URL+"/dist/lease", st.LeaseRequest{Worker: "w1"}, &g1)
	postJSON(t, srv.URL+"/dist/complete",
		st.UnitReport{Worker: "w1", Run: g1.Run, Lease: g1.Lease, Units: g1.Units,
			Error: "store unreachable"}, nil)
	var g2 st.LeaseGrant
	postJSON(t, srv.URL+"/dist/lease", st.LeaseRequest{Worker: "w2"}, &g2)
	if unitCount(g2.Units) != 8 {
		t.Fatalf("failed units not re-queued: got %d, want 8", unitCount(g2.Units))
	}
	postJSON(t, srv.URL+"/dist/complete",
		st.UnitReport{Worker: "w2", Run: g2.Run, Lease: g2.Lease, Units: g2.Units}, nil)
	if err := <-done; err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	if got := counterValue(reg, metricReassigned); got < 8 {
		t.Errorf("%s = %v, want ≥ 8", metricReassigned, got)
	}
}

// TestProtocolRejections: non-POST and malformed bodies get the
// documented 4xx replies.
func TestProtocolRejections(t *testing.T) {
	c := New(Config{})
	srv := coordServer(t, c)
	resp, err := http.Get(srv.URL + "/dist/lease")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /dist/lease = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/dist/lease", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed lease body = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/dist/lease", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("anonymous lease request = %d, want 400", resp.StatusCode)
	}
}

// TestDistributedRunByteIdentity is the in-process end-to-end: a real
// campaign distributed to real Worker loops over HTTP must fold the
// exact cells a plain local run folds, with the distributed run's
// engine sweep serving every unit from the shared store.
func TestDistributedRunByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	const experiment = "threshold"

	// Baseline: plain local run, no cache.
	local, err := st.NewClient(st.WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Run(context.Background(), experiment)
	if err != nil {
		t.Fatal(err)
	}

	// Distributed: coordinator + shared disk store mounted like
	// stserve mounts them, three in-process workers.
	reg := obs.NewRegistry()
	coord := New(Config{LeaseTTL: 5 * time.Second, LeaseBatch: 4, Obs: reg, Logf: t.Logf})
	shared, err := st.NewClient(st.WithQuick(), st.WithCacheDir(t.TempDir()),
		st.WithDistributed(coord))
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	mux := http.NewServeMux()
	mux.Handle("/dist/", http.StripPrefix("/dist", coord.Handler()))
	mux.Handle("/store/", http.StripPrefix("/store", shared.StoreHandler()))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	for i := 0; i < 3; i++ {
		w, err := NewWorker(WorkerConfig{
			Coordinator: srv.URL,
			Name:        "inproc-" + string(rune('a'+i)),
			Jobs:        1,
			Heartbeat:   time.Second,
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(workerCtx)
		}()
	}

	got, err := shared.Run(ctx, experiment)
	stopWorkers()
	wg.Wait()
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}

	// Byte identity through the real renderer.
	var wantBuf, gotBuf bytes.Buffer
	if err := st.RenderText(&wantBuf, want); err != nil {
		t.Fatal(err)
	}
	if err := st.RenderText(&gotBuf, got); err != nil {
		t.Fatal(err)
	}
	if wantBuf.String() != gotBuf.String() {
		t.Errorf("distributed render differs from local:\n--- local ---\n%s--- distributed ---\n%s",
			wantBuf.String(), gotBuf.String())
	}
	// The engine's fold sweep served everything the fleet computed.
	if got.Stats.Computed != 0 {
		t.Errorf("distributed run computed %d units locally, want 0 (fleet + store should cover all %d)",
			got.Stats.Computed, got.Stats.Units)
	}
	if got := counterValue(reg, metricLeases); got < 2 {
		t.Errorf("%s = %v, want ≥ 2 (the batch size forces multiple leases)", metricLeases, got)
	}
}

// TestWorkerIdleExitReturns pins the IdleExit drain path: with the
// parent context still alive, Run must cancel its own heartbeat
// goroutine and return nil. A regression here leaves Run blocked in
// its deferred heartbeat wait and a batch fleet never drains.
func TestWorkerIdleExitReturns(t *testing.T) {
	c := New(Config{RetryAfter: 20 * time.Millisecond})
	srv := coordServer(t, c)
	w, err := NewWorker(WorkerConfig{
		Coordinator: srv.URL,
		Name:        "idle-w",
		Heartbeat:   20 * time.Millisecond,
		IdleExit:    50 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v, want nil on idle exit", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after IdleExit elapsed")
	}
}

// TestCompleteClampsReportedRanges pins that complete() bounds
// worker-supplied ranges before iterating: a hostile or corrupt
// report (hugely negative Start, End past the unit count, inverted
// range) must neither spin under the coordinator lock nor corrupt the
// run's completion accounting.
func TestCompleteClampsReportedRanges(t *testing.T) {
	c := New(Config{LeaseBatch: 64})
	srv := coordServer(t, c)
	done := startDistribute(t, context.Background(), c, 8)

	var grant st.LeaseGrant
	postJSON(t, srv.URL+"/dist/lease", st.LeaseRequest{Worker: "w1"}, &grant)
	if grant.Run == "" {
		t.Fatal("no work granted")
	}
	start := time.Now()
	postJSON(t, srv.URL+"/dist/complete", st.UnitReport{
		Worker: "w1", Run: grant.Run, Lease: grant.Lease,
		Units: []st.UnitRange{{Start: math.MinInt, End: 3}, {Start: 5, End: 2}},
	}, nil)
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("complete with hostile range took %s", el)
	}
	select {
	case <-done:
		t.Fatal("out-of-range report completed the run")
	default:
	}
	// The clamped report marked only units [0,3); finishing the rest
	// must complete the run exactly.
	postJSON(t, srv.URL+"/dist/complete", st.UnitReport{
		Worker: "w1", Run: grant.Run, Lease: grant.Lease,
		Units: []st.UnitRange{{Start: 3, End: math.MaxInt}},
	}, nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Distribute: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Distribute did not return after all real units completed")
	}
}
