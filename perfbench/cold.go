package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"time"

	"silenttracker/st"
)

// coldLoad is a closed-loop workload: one client sends full sweeps
// one after another, each pass into a fresh result cache at a seed
// derived from the workload seed.
type coldLoad struct {
	exps []string
	// passSeconds is what one pass takes on the reference box (2
	// CPUs); --seconds / passSeconds fixes the number of passes, so a
	// run does the same work however fast the program is.
	passSeconds float64
}

// paperExps are the paper's eight single-UE experiments.
var paperExps = []string{"fig2a", "fig2c", "mobility", "threshold", "hysteresis", "baseline", "patterns", "codebook"}

var (
	scenarioLoad = coldLoad{exps: []string{"urban", "highway", "hotspot"}, passSeconds: 7}
	paperLoad    = coldLoad{exps: paperExps, passSeconds: 1.25}
)

const (
	// setupProbes is how many times a cold run times its set-up.
	setupProbes = 11
	// memBudget sizes the cold workloads' result cache: the program's
	// in-memory tier at the daemon's default budget, far above the
	// ~0.7 MB one pass writes, so nothing is evicted. The cache is
	// RAM-backed because the disk under the checkout is a shared,
	// rate-limited virtual disk: with a disk cache, cold-paper's
	// throughput spread over runs of one seed was about 20%, against
	// about 3% in memory.
	memBudget = 64 << 20
)

// coldReq is one request: an experiment's full sweep at a pass's seed.
type coldReq struct {
	pass int
	exp  string
	seed int64
}

func (r coldReq) id() string { return fmt.Sprintf("%s/p%d", r.exp, r.pass) }

// passes lays out the run's fixed work, one slice of requests per pass.
func (l coldLoad) passes(cfg config) [][]coldReq {
	n := max(1, int(math.Round(float64(cfg.seconds)/l.passSeconds)))
	passes := make([][]coldReq, n)
	for p := range passes {
		seed := deriveSeed(cfg.seed, 1, int64(p))
		for _, exp := range l.exps {
			passes[p] = append(passes[p], coldReq{pass: p, exp: exp, seed: seed})
		}
	}
	return passes
}

// coldRun is what a timed phase produced.
type coldRun struct {
	passMS   []float64     // per pass: the workload's job latency
	passRate []float64     // per pass: units per second
	results  []*st.Result  // traced only
	stores   []*timedStore // traced: one per pass
}

// runCold runs the passes in order. A pass is the workload's job: a
// client on a fresh cache runs each experiment back to back, as one
// `stcampaign run` over them would. Right after a pass, outside its
// timing, the pass is re-rendered warm from the cache it filled. With
// a tracer the clients run with telemetry on and a timed store;
// without one they are exactly what a user builds.
func runCold(ctx context.Context, passes [][]coldReq, tr *tracer, t *tally) *coldRun {
	run := &coldRun{}
	for _, reqs := range passes {
		runPass(ctx, reqs, run, tr, t)
	}
	return run
}

// runPass runs and then verifies one pass.
func runPass(ctx context.Context, reqs []coldReq, run *coldRun, tr *tracer, t *tally) {
	t.attempted += len(reqs)
	t0 := time.Now()
	client, store, err := coldClient(tr)
	if err != nil {
		t.failed += len(reqs)
		t.problem("pass %d: %v", reqs[0].pass, err)
		return
	}
	defer client.Close()
	if store != nil {
		run.stores = append(run.stores, store)
	}
	outs := make([][]byte, len(reqs))
	units, ok := 0, true
	for i, r := range reqs {
		out, res, err := coldRequest(ctx, client, store, r, tr)
		if err != nil {
			t.fail("%s: %v", r.id(), err)
			ok = false
			continue
		}
		units += res.Stats.Units
		outs[i] = out
		if tr != nil {
			run.results = append(run.results, res) // for the per-layer metrics
		}
	}
	d := time.Since(t0)
	if ok {
		run.passMS = append(run.passMS, ms(d))
		run.passRate = append(run.passRate, float64(units)/d.Seconds())
	}

	// The warm re-render must compute nothing and match byte for byte.
	if store != nil {
		store.attach("", 0) // the check is not the workload
	}
	for i, r := range reqs {
		if outs[i] == nil {
			continue // already counted as failed
		}
		warm, res, err := render(ctx, client, r.exp, st.WithSeed(r.seed))
		switch {
		case err != nil:
			t.fail("%s: warm re-render: %v", r.id(), err)
		case res.Stats.Computed != 0:
			t.fail("%s: warm re-render recomputed %d units", r.id(), res.Stats.Computed)
		default:
			if err := sameBytes(outs[i], warm); err != nil {
				t.fail("%s: cold sweep vs warm re-render: %v", r.id(), err)
			}
		}
	}
}

// coldClient builds a pass's client on a fresh in-memory cache.
func coldClient(tr *tracer) (*st.Client, *timedStore, error) {
	if tr == nil {
		c, err := st.NewClient(st.WithMemCache(memBudget))
		return c, nil, err
	}
	store := newTimedStore(tr)
	c, err := st.NewClient(st.WithStore(store), st.WithMetrics())
	return c, store, err
}

// coldRequest runs one experiment's sweep and renders it, recording a
// span around each st call when traced.
func coldRequest(ctx context.Context, client *st.Client, store *timedStore, r coldReq, tr *tracer) ([]byte, *st.Result, error) {
	id := r.id()
	t0 := time.Now()
	root := tr.open("request", id, 0, t0)
	sess, err := client.Session(r.exp, st.WithSeed(r.seed))
	t1 := time.Now()
	tr.record("st.Client.Session", id, root, t0, t1)
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	runSpan := tr.open("st.Session.Run", id, root, t1)
	if store != nil {
		store.attach(id, runSpan)
	}
	res, err := sess.Run(ctx)
	t2 := time.Now()
	tr.close(runSpan, t2)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	err = st.RenderCampaignText(&buf, res)
	t3 := time.Now()
	tr.record("st.RenderCampaignText", id, root, t2, t3)
	tr.close(root, t3)
	if res.Report != nil {
		recordEngineSpans(tr, id, runSpan, res.Report.Span)
	}
	return buf.Bytes(), res, err
}

// recordEngineSpans copies the engine's own phase tree (the
// WithMetrics report) into the trace under the request's Run span.
func recordEngineSpans(tr *tracer, req string, parent int, s *st.Span) {
	if s == nil {
		return
	}
	id := tr.record("campaign.engine", req, parent, s.Start, s.Start.Add(s.Duration))
	for _, c := range s.Children {
		tr.record("campaign."+c.Name, req, id, c.Start, c.Start.Add(c.Duration))
	}
}

// coldWorkload runs a closed-loop workload: untraced for the
// end-to-end metrics, then (with --trace 1) traced for the per-layer
// ones.
func coldWorkload(l coldLoad) workload {
	return func(ctx context.Context, cfg config, t *tally) (map[string]metric, error) {
		var setup float64
		if !cfg.trace {
			var err error
			if setup, err = measureSetup(); err != nil {
				return nil, err
			}
		}
		passes := l.passes(cfg)
		run := runCold(ctx, passes, nil, t)
		if !cfg.trace {
			rss, err := peakRSSMB("self")
			if err != nil {
				return nil, err
			}
			return map[string]metric{
				"setup_s":     {setup, "s"},
				"units_per_s": {median(run.passRate), "1/s"},
				"job_ms_p50":  {percentile(run.passMS, 50), "ms"},
				"job_ms_p99":  {percentile(run.passMS, 99), "ms"},
				"rss_peak_mb": {rss, "MB"},
			}, nil
		}

		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return nil, err
		}
		tr := newTracer()
		prof, err := os.Create(filepath.Join(cfg.traceDir, "cpu.pprof"))
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, err
		}
		traced := runCold(ctx, passes, tr, t)
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
		if err := tr.write(cfg.traceDir); err != nil {
			return nil, err
		}
		cpu, err := cpuShares(prof.Name())
		if err != nil {
			return nil, err
		}
		m := coldLayers(traced, tr)
		for k, v := range cpu {
			m[k] = v
		}
		m["loadgen.sent"] = metric{float64(len(passes) * len(l.exps)), "count"}
		m["trace.overhead_pct"] = metric{100 * (1 - ratio(median(traced.passRate), median(run.passRate))), "%"}
		fmt.Fprintf(os.Stderr, "perfbench: spans and CPU profile in %s\n", cfg.traceDir)
		return withLayerDefaults(m), nil
	}
}

// coldLayers derives the per-layer metrics of a traced cold run from
// its spans and the program's per-run telemetry reports.
func coldLayers(run *coldRun, tr *tracer) map[string]metric {
	m := map[string]metric{}
	unitSum := map[string]float64{}
	unitN := map[string]float64{}
	var computed, cached, units, putFailed float64
	var busy, idle, waitSum, waitN float64
	var expand, fold, self []float64
	for _, res := range run.results {
		rep := res.Report
		if rep == nil {
			continue
		}
		computed += float64(res.Stats.Computed)
		cached += float64(res.Stats.Cached)
		units += float64(res.Stats.Units)
		if h, ok := histogram(rep, "st_unit_compute_seconds"); ok {
			unitSum[res.Campaign] += h.Sum
			unitN[res.Campaign] += float64(h.Count)
		}
		if h, ok := histogram(rep, "st_worker_dispatch_wait_seconds"); ok {
			waitSum += h.Sum
			waitN += float64(h.Count)
		}
		busy += counter(rep, "st_worker_busy_seconds_total")
		idle += counter(rep, "st_worker_idle_seconds_total")
		if s := rep.Span; s != nil {
			children := time.Duration(0)
			for _, c := range s.Children {
				children += c.Duration
				switch c.Name {
				case "expand":
					expand = append(expand, ms(c.Duration))
				case "fold":
					fold = append(fold, ms(c.Duration))
				}
			}
			self = append(self, ms(s.Duration-children))
		}
	}
	for exp, n := range unitN {
		m["experiments.unit_ms."+exp] = metric{1000 * ratio(unitSum[exp], n), "ms"}
	}
	for _, s := range run.stores {
		putFailed += float64(s.putFailed)
	}
	gets, puts := tr.durations("campaign.store.get"), tr.durations("campaign.store.put")
	m["experiments.units_computed"] = metric{computed, "count"}
	m["campaign.store.get_us"] = metric{medianUS(gets), "us"}
	m["campaign.store.gets"] = metric{float64(len(gets)), "count"}
	m["campaign.store.put_us"] = metric{medianUS(puts), "us"}
	m["campaign.store.puts"] = metric{float64(len(puts)), "count"}
	m["campaign.store.put_failed"] = metric{putFailed, "count"}
	m["campaign.store.hit_share"] = metric{ratio(cached, units), "ratio"}
	m["campaign.entry_bytes"] = metric{meanEntryBytes(run.results), "B"}
	m["campaign.runs"] = metric{float64(len(expand)), "count"}
	m["campaign.expand_ms"] = metric{median(expand), "ms"}
	m["campaign.fold_ms"] = metric{median(fold), "ms"}
	m["campaign.engine_self_ms"] = metric{median(self), "ms"}
	m["runner.worker_idle_share"] = metric{ratio(idle, busy+idle), "ratio"}
	m["runner.dispatch_wait_us"] = metric{1e6 * ratio(waitSum, waitN), "us"}
	m["st.session_ms"] = metric{medianMS(tr.durations("st.Client.Session")), "ms"}
	m["st.render_ms"] = metric{medianMS(tr.durations("st.RenderCampaignText")), "ms"}
	return m
}

// histogram finds a report histogram by name (any labels).
func histogram(rep *st.Report, name string) (st.HistogramPoint, bool) {
	for _, h := range rep.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return st.HistogramPoint{}, false
}

// counter sums a report counter's series.
func counter(rep *st.Report, name string) float64 {
	v := 0.0
	for _, c := range rep.Counters {
		if c.Name == name {
			v += c.Value
		}
	}
	return v
}

// meanEntryBytes is the mean size of the store entries behind the
// results: each unit's metrics in the canonical entry encoding, which
// is encoding/json's (what every store tier keeps).
func meanEntryBytes(results []*st.Result) float64 {
	var total, n float64
	for _, res := range results {
		for _, cell := range res.Cells {
			for _, trial := range cell.Trials {
				if buf, err := json.Marshal(trial); err == nil {
					total += float64(len(buf))
					n++
				}
			}
		}
	}
	return ratio(total, n)
}

// measureSetup times set-up as a user meets it: from starting a
// fresh process to the point where it could send its first request
// (runtime and package init, flag parsing, st.NewClient with its
// cache). Each probe is a fresh copy of this binary; the median is
// reported.
func measureSetup() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--setup-probe")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, err := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		if werr := cmd.Wait(); err == nil {
			err = werr
		}
		if err != nil || line != "ready\n" {
			return 0, fmt.Errorf("setup probe: %q, %v", line, err)
		}
		xs = append(xs, d.Seconds())
	}
	return median(xs), nil
}

// setupProbe is the probe process: the set-up a cold run performs
// before its first request.
func setupProbe() int {
	c, err := st.NewClient(st.WithMemCache(memBudget))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: probe:", err)
		return 1
	}
	defer c.Close()
	fmt.Println("ready")
	return 0
}
