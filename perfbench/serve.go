package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"silenttracker/st"
)

const (
	// serveRate is the fixed offered load in jobs per second: about
	// half the saturation rate of this job mix measured with
	// serveConns connections on the reference box (2 CPUs).
	serveRate = 230.0
	// serveConns bounds the load generator's connections (≤ nproc).
	// At most this many jobs are ever queued or running, which keeps
	// the daemon's admission queue (default 16) from refusing any.
	serveConns = 2
	// coldEvery makes every ninth job a cold fig2a quick job.
	coldEvery = 9
	// serveSegments splits a run into daemon lifetimes. Each start is
	// timed through its warm-up pass and then serves an equal share of
	// the schedule; every metric is the median over segments.
	serveSegments = 9
	// jobTimeout bounds one job (submit, stream and result).
	jobTimeout = 60 * time.Second
)

// paperPattern selects the eight paper experiments for stcampaign run.
var paperPattern = "^(" + strings.Join(paperExps, "|") + ")$"

// serveJob is one job of the schedule.
type serveJob struct {
	req  st.JobRequest
	cold bool
}

// serveSchedule lays out the run's fixed job list: warm jobs cycle
// through the paper experiments at the prefilled seed; every ninth is
// a cold fig2a quick job at a fresh seed.
func serveSchedule(cfg config, warmSeed int64) []serveJob {
	n := int(math.Round(serveRate * float64(cfg.seconds)))
	jobs := make([]serveJob, n)
	warm := 0
	for i := range jobs {
		if i%coldEvery == coldEvery-1 {
			jobs[i] = serveJob{req: st.JobRequest{Experiment: "fig2a", Quick: true,
				Seed: deriveSeed(cfg.seed, 3, int64(i))}, cold: true}
			continue
		}
		jobs[i] = serveJob{req: st.JobRequest{Experiment: paperExps[warm%len(paperExps)], Seed: warmSeed}}
		warm++
	}
	return jobs
}

// daemon is a running stserve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	logEOF chan struct{} // closed when the daemon's stderr closes
}

// startDaemon runs stserve with its shipped defaults on a free
// loopback port and waits until it answers /healthz.
func startDaemon(ctx context.Context, bin, cacheDir string, hc *http.Client) (*daemon, error) {
	cmd := exec.Command(filepath.Join(bin, "stserve"), "-addr", "127.0.0.1:0", "-cache-dir", cacheDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logEOF: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logEOF)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "stserve: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case d.base = <-addr:
	case <-d.logEOF:
		d.stop()
		return nil, errors.New("stserve exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("stserve did not start listening")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, errors.New("stserve never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon (SIGTERM) and waits for it to exit; one that
// does not exit in time is killed.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.logEOF:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.logEOF
	}
	return d.cmd.Wait()
}

// jobOut is what one job returned and when.
type jobOut struct {
	id     string
	body   []byte
	final  st.JobStatus // the terminal SSE frame
	events int
	due    time.Time
	sent   time.Time
	end    time.Time
	err    error
}

// doJob submits a job, follows its SSE stream to the terminal frame
// and fetches the rendered result.
func doJob(ctx context.Context, hc *http.Client, base string, req st.JobRequest, tr *tracer, rid string, parent int) (out jobOut) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	out.sent = time.Now()
	defer func() { out.end = time.Now() }()

	body, _ := json.Marshal(req)
	t0 := time.Now()
	resp, err := post(ctx, hc, base+"/jobs", body)
	t1 := time.Now()
	tr.record("http.POST /jobs", rid, parent, t0, t1)
	if err != nil {
		out.err = err
		return out
	}
	if resp.StatusCode != http.StatusAccepted {
		out.err = fmt.Errorf("POST /jobs: %s", resp.Status)
		resp.Body.Close()
		return out
	}
	var status st.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		out.err = fmt.Errorf("POST /jobs: %w", err)
		return out
	}

	streamSpan := tr.open("http.GET /jobs/{id}/events", rid, parent, t1)
	out.events, out.final, err = followEvents(ctx, hc, base+"/jobs/"+status.ID+"/events", func(first time.Time) {
		tr.record("serve.first_event", rid, streamSpan, t1, first)
	})
	t2 := time.Now()
	tr.close(streamSpan, t2)
	if err != nil {
		out.err = err
		return out
	}
	if out.final.State != st.JobDone {
		out.err = fmt.Errorf("job %s ended %s: %s", status.ID, out.final.State, out.final.Error)
		return out
	}

	out.body, err = get(ctx, hc, base+"/jobs/"+status.ID+"/result")
	tr.record("http.GET /jobs/{id}/result", rid, parent, t2, time.Now())
	out.err = err
	return out
}

func post(ctx context.Context, hc *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return hc.Do(req)
}

func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return buf, err
}

// followEvents reads an SSE stream to its end and returns the number
// of frames and the terminal job status; first is called when the
// first frame arrives.
func followEvents(ctx context.Context, hc *http.Client, url string, first func(time.Time)) (int, st.JobStatus, error) {
	var final st.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, final, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, final, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, final, fmt.Errorf("GET events: %s", resp.Status)
	}
	events, terminal := 0, false
	r := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := r.ReadSlice('\n')
		if err == io.EOF {
			break
		}
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			return events, final, err
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			if events == 0 {
				first(time.Now())
			}
			events++
			terminal = bytes.Equal(line, []byte("event: job\n"))
		case terminal && bytes.HasPrefix(line, []byte("data: ")):
			var ev st.JobEvent
			if err := json.Unmarshal(line[len("data: "):], &ev); err != nil || ev.Job == nil {
				return events, final, fmt.Errorf("terminal frame: %v", err)
			}
			final = *ev.Job
		}
	}
	if final.ID == "" {
		return events, final, errors.New("event stream ended without a terminal frame")
	}
	return events, final, nil
}

// runSchedule offers the jobs open-loop at serveRate over serveConns
// connections. Each job is timed from its due time, so a job sent late
// because both connections were busy carries the wait; none is
// dropped.
func runSchedule(ctx context.Context, hc *http.Client, base string, jobs []serveJob, first int, tr *tracer) []jobOut {
	outs := make([]jobOut, len(jobs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				due := start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
				select {
				case <-time.After(time.Until(due)):
				case <-ctx.Done():
					outs[i] = jobOut{id: fmt.Sprintf("j%d", first+i), due: due, sent: due, end: time.Now(), err: ctx.Err()}
					continue
				}
				rid := fmt.Sprintf("j%d", first+i)
				root := tr.open("job", rid, 0, due)
				out := doJob(ctx, hc, base, jobs[i].req, tr, rid, root)
				tr.close(root, out.end)
				if out.sent.After(due) {
					tr.record("loadgen.late", rid, root, due, out.sent)
				}
				out.id, out.due = rid, due
				outs[i] = out
			}
		}()
	}
	wg.Wait()
	return outs
}

// segment is one daemon lifetime: a timed start (through the warm-up
// pass) and then its share of the schedule.
type segment struct {
	setup float64 // seconds from exec to the end of the warm-up pass
	jobs  []serveJob
	outs  []jobOut
	rss   float64 // the daemon's peak RSS, MB
	delta prom    // traced: /metrics over the timed schedule
}

// jobMS returns the latencies of the segment's successful jobs.
func (g *segment) jobMS() []float64 {
	var xs []float64
	for _, o := range g.outs {
		if o.err == nil {
			xs = append(xs, ms(o.end.Sub(o.due)))
		}
	}
	return xs
}

// unitsPerS is the units the segment's jobs served per second of its
// schedule.
func (g *segment) unitsPerS() float64 {
	if len(g.outs) == 0 {
		return 0
	}
	units, last := 0, g.outs[0].end
	for _, o := range g.outs {
		if o.final.Stats != nil {
			units += o.final.Stats.Units
		}
		if o.end.After(last) {
			last = o.end
		}
	}
	return ratio(float64(units), last.Sub(g.outs[0].due).Seconds())
}

// servePhase is one prefill followed by serveSegments daemon
// lifetimes that share the schedule.
type servePhase struct {
	cacheDir  string
	warmSeed  int64
	reference map[string][]byte // warm references by experiment
	segments  []segment
}

// bySegment applies f to every segment and returns the median, so one
// daemon lifetime that ran in a disturbed stretch of the machine
// cannot move the result.
func (p *servePhase) bySegment(f func(*segment) float64) float64 {
	xs := make([]float64, len(p.segments))
	for i := range p.segments {
		xs[i] = f(&p.segments[i])
	}
	return median(xs)
}

// removeCache deletes the phase's cache as soon as the phase is
// checked. Tens of thousands of small entry files deleted before the
// kernel's dirty-data expiry (30 s by default) never reach the disk;
// left longer, their writeback and then their deletion can stall the
// disk under the checkout for minutes.
func (p *servePhase) removeCache() {
	t0 := time.Now()
	os.RemoveAll(p.cacheDir)
	fmt.Fprintf(os.Stderr, "perfbench: removed %s in %.1fs\n", filepath.Base(p.cacheDir), time.Since(t0).Seconds())
}

// runServePhase prefills a fresh cache with the CLI, then for each
// segment starts the daemon, runs its warm-up pass (the start and the
// pass are the set-up), offers the segment's share of the schedule,
// and stops the daemon.
func runServePhase(ctx context.Context, cfg config, tag string, tr *tracer, t *tally) (*servePhase, error) {
	p := &servePhase{cacheDir: filepath.Join(cfg.work, tag+"-cache"), warmSeed: deriveSeed(cfg.seed, 2)}
	var stdout bytes.Buffer
	prefill := exec.CommandContext(ctx, filepath.Join(cfg.bin, "stcampaign"), "run",
		"-cache-dir", p.cacheDir, "-seed", strconv.FormatInt(p.warmSeed, 10), paperPattern)
	prefill.Stdout = &stdout
	if err := prefill.Run(); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	refs, err := splitCampaigns(stdout.Bytes())
	if err != nil {
		return nil, err
	}
	if len(refs) != len(paperExps) {
		return nil, fmt.Errorf("prefill rendered %d experiments, want %d", len(refs), len(paperExps))
	}
	p.reference = refs

	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	defer hc.CloseIdleConnections()
	jobs := serveSchedule(cfg, p.warmSeed)
	per := (len(jobs) + serveSegments - 1) / serveSegments
	for k := 0; k < serveSegments; k++ {
		g := segment{jobs: jobs[min(k*per, len(jobs)):min((k+1)*per, len(jobs))]}
		if err := runSegment(ctx, hc, cfg.bin, p, &g, k*per, tr, t); err != nil {
			return nil, err
		}
		p.segments = append(p.segments, g)
	}
	return p, nil
}

// runSegment runs one daemon lifetime; first is the global index of
// the segment's first job.
func runSegment(ctx context.Context, hc *http.Client, bin string, p *servePhase, g *segment, first int, tr *tracer, t *tally) error {
	t0 := time.Now()
	d, err := startDaemon(ctx, bin, p.cacheDir, hc)
	if err != nil {
		return err
	}
	for _, exp := range paperExps {
		out := doJob(ctx, hc, d.base, st.JobRequest{Experiment: exp, Seed: p.warmSeed}, nil, "", 0)
		if out.err == nil {
			out.err = sameBytes(out.body, p.reference[exp])
		}
		if out.err != nil {
			t.problem("warm-up %s: %v", exp, out.err)
		}
	}
	g.setup = time.Since(t0).Seconds()

	var before prom
	if tr != nil {
		before, err = scrape(ctx, hc, d.base)
	}
	if err == nil {
		g.outs = runSchedule(ctx, hc, d.base, g.jobs, first, tr)
		if tr != nil {
			var after prom
			after, err = scrape(ctx, hc, d.base)
			g.delta = after.sub(before)
		}
	}
	rss, rssErr := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err == nil {
		err = rssErr
	}
	g.rss = rss
	return err
}

// verifyServe counts every job and byte-checks its result: a warm job
// against the prefill's stcampaign stdout (and it must not have
// computed anything), a cold job against a cacheless library
// rendering of the same request.
func verifyServe(ctx context.Context, p *servePhase, t *tally) {
	lib, err := st.NewClient()
	if err != nil {
		t.problem("library client: %v", err)
		return
	}
	defer lib.Close()
	for _, g := range p.segments {
		for i, o := range g.outs {
			job := g.jobs[i]
			t.attempted++
			if o.err != nil {
				t.fail("job %s (%s): %v", o.id, job.req.Experiment, o.err)
				continue
			}
			want := p.reference[job.req.Experiment]
			if job.cold {
				var err error
				if want, _, err = render(ctx, lib, "fig2a", st.WithQuick(), st.WithSeed(job.req.Seed)); err != nil {
					t.fail("job %s: library rendering: %v", o.id, err)
					continue
				}
			} else if o.final.Stats == nil || o.final.Stats.Computed != 0 {
				t.fail("job %s (%s): a warm job computed units", o.id, job.req.Experiment)
				continue
			}
			if err := sameBytes(o.body, want); err != nil {
				t.fail("job %s (%s): %v", o.id, job.req.Experiment, err)
			}
		}
	}
}

func serveWorkload(ctx context.Context, cfg config, t *tally) (map[string]metric, error) {
	p, err := runServePhase(ctx, cfg, "untraced", nil, t)
	if err != nil {
		return nil, err
	}
	verifyServe(ctx, p, t)
	p.removeCache()
	p50 := p.bySegment(func(g *segment) float64 { return percentile(g.jobMS(), 50) })
	if !cfg.trace {
		return map[string]metric{
			"setup_s":     {p.bySegment(func(g *segment) float64 { return g.setup }), "s"},
			"units_per_s": {p.bySegment((*segment).unitsPerS), "1/s"},
			"job_ms_p50":  {p50, "ms"},
			"job_ms_p99":  {p.bySegment(func(g *segment) float64 { return percentile(g.jobMS(), 99) }), "ms"},
			"rss_peak_mb": {p.bySegment(func(g *segment) float64 { return g.rss }), "MB"},
		}, nil
	}

	tr := newTracer()
	tp, err := runServePhase(ctx, cfg, "traced", tr, t)
	if err != nil {
		return nil, err
	}
	verifyServe(ctx, tp, t)
	m, err := serveLayers(ctx, tp, tr)
	tp.removeCache()
	if err != nil {
		return nil, err
	}
	traced := tp.bySegment(func(g *segment) float64 { return percentile(g.jobMS(), 50) })
	m["trace.overhead_pct"] = metric{100 * (ratio(traced, p50) - 1), "%"}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(cfg.traceDir); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans in %s\n", cfg.traceDir)
	return withLayerDefaults(m), nil
}

// serveLayers derives the per-layer metrics of a traced serve phase:
// perfbench's own HTTP spans, the daemon's /metrics deltas over the timed
// schedules, and an in-process replay of the st calls a warm job makes.
func serveLayers(ctx context.Context, p *servePhase, tr *tracer) (map[string]metric, error) {
	d := prom{}
	var events, putFailed, elapsed, late []float64
	for _, g := range p.segments {
		for k, v := range g.delta {
			d[k] += v
		}
		for _, o := range g.outs {
			events = append(events, float64(o.events))
			late = append(late, ms(o.sent.Sub(o.due)))
			if s := o.final.Stats; s != nil {
				putFailed = append(putFailed, float64(s.PutFailed))
				elapsed = append(elapsed, s.Elapsed.Seconds())
			}
		}
	}
	m := map[string]metric{}
	computed := d[`st_campaign_units_total{outcome="computed"}`]
	cached := d[`st_campaign_units_total{outcome="cached"}`]
	runs := d["st_campaign_runs_total"]
	m["experiments.units_computed"] = metric{computed, "count"}
	if sum, n := d.hist("st_unit_compute_seconds", ""); n > 0 {
		m["experiments.unit_ms.fig2a"] = metric{1000 * sum / n, "ms"} // only cold fig2a jobs compute
	}
	// Every engine Get and Put passes the first (mem) tier; a Get that
	// misses there continues to disk. Per-op times are the tiers' sum
	// over the first tier's op count.
	getSum, gets := d.hist("st_store_get_seconds", `tier="mem"`)
	diskGet, _ := d.hist("st_store_get_seconds", `tier="disk"`)
	putSum, puts := d.hist("st_store_put_seconds", `tier="mem"`)
	diskPut, _ := d.hist("st_store_put_seconds", `tier="disk"`)
	m["campaign.store.gets"] = metric{gets, "count"}
	m["campaign.store.get_us"] = metric{1e6 * ratio(getSum+diskGet, gets), "us"}
	m["campaign.store.puts"] = metric{puts, "count"}
	m["campaign.store.put_us"] = metric{1e6 * ratio(putSum+diskPut, puts), "us"}
	m["campaign.store.put_failed"] = metric{sum(putFailed), "count"}
	m["campaign.store.hit_share"] = metric{ratio(cached, cached+computed), "ratio"}
	m["campaign.entry_bytes"] = metric{meanFileBytes(p.cacheDir), "B"}
	m["campaign.runs"] = metric{runs, "count"}
	var phases float64
	for _, ph := range []string{"expand", "distribute", "execute", "fold"} {
		s, n := d.hist("st_phase_seconds", `phase="`+ph+`"`)
		phases += s
		if ph == "expand" || ph == "fold" {
			m["campaign."+ph+"_ms"] = metric{1000 * ratio(s, n), "ms"}
		}
	}
	m["campaign.engine_self_ms"] = metric{1000 * ratio(sum(elapsed)-phases, runs), "ms"}
	busy, idle := d["st_worker_busy_seconds_total"], d["st_worker_idle_seconds_total"]
	m["runner.worker_idle_share"] = metric{ratio(idle, busy+idle), "ratio"}
	waitSum, waitN := d.hist("st_worker_dispatch_wait_seconds", "")
	m["runner.dispatch_wait_us"] = metric{1e6 * ratio(waitSum, waitN), "us"}

	m["serve.submit_ms"] = metric{medianMS(tr.durations("http.POST /jobs")), "ms"}
	m["serve.first_event_ms"] = metric{medianMS(tr.durations("serve.first_event")), "ms"}
	m["serve.stream_ms"] = metric{medianMS(tr.durations("http.GET /jobs/{id}/events")), "ms"}
	m["serve.result_ms"] = metric{medianMS(tr.durations("http.GET /jobs/{id}/result")), "ms"}
	m["serve.events_per_job"] = metric{ratio(sum(events), float64(len(events))), "count"}
	m["serve.rejected"] = metric{d["st_serve_jobs_rejected_total"], "count"}
	m["loadgen.late_ms_p99"] = metric{percentile(late, 99), "ms"}
	m["loadgen.sent"] = metric{float64(len(late)), "count"}

	sess, rend, err := replayWarm(ctx, p, tr)
	if err != nil {
		return nil, err
	}
	m["st.session_ms"] = metric{sess, "ms"}
	m["st.render_ms"] = metric{rend, "ms"}
	return m, nil
}

// meanFileBytes is the mean size of the entry files in a disk cache.
func meanFileBytes(dir string) float64 {
	var total, n float64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			if info, err := d.Info(); err == nil {
				total += float64(info.Size())
				n++
			}
		}
		return nil
	})
	return ratio(total, n)
}

// replayWarm makes, in-process against the phase's cache, the st calls
// a warm job makes inside the daemon (Session, Run, render), timing
// Session and render; the rendered bytes must match the references.
func replayWarm(ctx context.Context, p *servePhase, tr *tracer) (sessionMS, renderMS float64, err error) {
	c, err := st.NewClient(st.WithCacheDir(p.cacheDir))
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	var sess, rend []time.Duration
	for _, exp := range paperExps {
		rid := "replay/" + exp
		t0 := time.Now()
		s, err := c.Session(exp, st.WithSeed(p.warmSeed))
		t1 := time.Now()
		tr.record("st.Client.Session", rid, 0, t0, t1)
		if err != nil {
			return 0, 0, err
		}
		res, err := s.Run(ctx)
		t2 := time.Now()
		tr.record("st.Session.Run", rid, 0, t1, t2)
		if err != nil {
			return 0, 0, err
		}
		var buf bytes.Buffer
		if err := st.RenderCampaignText(&buf, res); err != nil {
			return 0, 0, err
		}
		t3 := time.Now()
		tr.record("st.RenderCampaignText", rid, 0, t2, t3)
		if err := sameBytes(buf.Bytes(), p.reference[exp]); err != nil {
			return 0, 0, fmt.Errorf("warm replay of %s: %w", exp, err)
		}
		sess, rend = append(sess, t1.Sub(t0)), append(rend, t3.Sub(t2))
	}
	return medianMS(sess), medianMS(rend), nil
}

// prom is a Prometheus text scrape: series (name plus labels, as
// printed) → value.
type prom map[string]float64

func scrape(ctx context.Context, hc *http.Client, base string) (prom, error) {
	buf, err := get(ctx, hc, base+"/metrics")
	if err != nil {
		return nil, err
	}
	p := prom{}
	for _, line := range strings.Split(string(buf), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			p[line[:i]] = v
		}
	}
	return p, nil
}

// sub returns p − q series by series.
func (p prom) sub(q prom) prom {
	out := prom{}
	for k, v := range p {
		out[k] = v - q[k]
	}
	return out
}

// hist returns a histogram series' sum and count; labels is the label
// set inside the braces ("" for none).
func (p prom) hist(name, labels string) (sum, count float64) {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	return p[name+"_sum"+suffix], p[name+"_count"+suffix]
}
