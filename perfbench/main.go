// Command perfbench is the repository benchmark. It runs one workload
// against the unchanged program, checks every output byte for byte,
// and prints one JSON result line:
//
//	bash perfbench/run.sh --workload cold-paper --seed 1 --seconds 20 --trace 0
//
// Workloads (README.md gives the reasons and the per-layer
// predictions):
//
//	cold-scenario  full urban, highway and hotspot sweeps, in-process
//	cold-paper     the eight paper experiments at full trials, in-process
//	serve-mixed    warm and cold jobs against a real stserve daemon
//	all            each of the above in turn, one process each
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 perfbench runs the workload untraced and then traced, and
// the result carries the per-layer metrics; spans (and, for the cold
// workloads, a CPU profile) are written under <work>/trace/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// goldenDir holds the program's only recorded reference outputs,
// relative to the root of the tree the benchmark runs in.
const goldenDir = "st/testdata/golden"

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // holds the stserve and stcampaign binaries
	work     string // scratch directory of this invocation
	traceDir string // where spans and profiles land (traced runs)
}

// tally counts a run's requests and collects what went wrong.
type tally struct {
	attempted int
	failed    int
	problems  []string
}

// fail records one failed request (or check) with its reason.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.problem(format, args...)
}

// problem records a correctness problem that is not a request.
func (t *tally) problem(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// workload runs one workload and returns its metrics.
type workload func(ctx context.Context, cfg config, t *tally) (map[string]metric, error)

var workloads = map[string]workload{
	"cold-scenario": coldWorkload(scenarioLoad),
	"cold-paper":    coldWorkload(paperLoad),
	"serve-mixed":   serveWorkload,
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "cold-scenario, cold-paper, serve-mixed or all")
	seed := fs.Int64("seed", 1, "workload seed: every request and request seed derives from it")
	seconds := fs.Int("seconds", 20, "nominal run length; fixes the amount of work, not a time box")
	trace := fs.Int("trace", 0, "1 = also run traced and report per-layer metrics")
	bin := fs.String("bin", "", "directory holding the stserve and stcampaign binaries")
	work := fs.String("work", ".bench_build", "scratch directory for caches, spans and profiles")
	probe := fs.Bool("setup-probe", false, "set up as the workload would, print ready, exit (used to time set-up)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *probe {
		return setupProbe()
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		// Each workload in its own process, so each peak RSS is its own.
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		code := 0
		for _, n := range []string{"cold-scenario", "cold-paper", "serve-mixed"} {
			cmd := exec.Command(exe, "--workload", n, "--seed", strconv.FormatInt(*seed, 10),
				"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace), "--bin", *bin, "--work", *work)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
				code = 1
			}
		}
		return code
	}
	if workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin}
	cfg.work = filepath.Join(*work, "run", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	cfg.traceDir = filepath.Join(*work, "trace", fmt.Sprintf("%s-seed%d", *name, *seed))
	if err := runOne(ctx, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return 0
}

// runOne runs a workload, checks the golden outputs, and prints the
// result line. An error means no result could be measured.
func runOne(ctx context.Context, cfg config) error {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer func() {
		t0 := time.Now()
		os.RemoveAll(cfg.work)
		fmt.Fprintf(os.Stderr, "perfbench: %s: clean-up %.1fs\n", cfg.workload, time.Since(t0).Seconds())
	}()
	var t tally
	start := time.Now()
	metrics, err := workloads[cfg.workload](ctx, cfg, &t)
	if err != nil {
		return err
	}
	// The golden check runs after the timed phases so it can neither
	// warm nor load them.
	checked := time.Now()
	if err := goldenCheck(ctx, goldenDir); err != nil {
		t.problem("golden check: %v", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: workload %.1fs, golden check %.1fs\n",
		cfg.workload, checked.Sub(start).Seconds(), time.Since(checked).Seconds())
	for _, p := range t.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", cfg.workload, p)
	}
	res := result{Correct: len(t.problems) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	printSummary(cfg.workload, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printSummary writes the result as a table on standard error.
func printSummary(name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(&b, "  %-34s %14.4f %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprint(os.Stderr, b.String())
}
