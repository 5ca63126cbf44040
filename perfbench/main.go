// Command perfbench is the repository benchmark: it runs the paper's
// experiments through the program's public runners as named workloads,
// checks every result, and prints the end-to-end metrics (untraced runs)
// or the per-layer metrics (a traced run). See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tune-cold --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"webharmony/internal/rng"
)

// metricDef names one reported metric. kind says whether the value is
// host time (what the simulator costs) or simulated (what the model says).
type metricDef struct {
	name, unit, better, kind string
}

var endToEndMetrics = []metricDef{
	{"evals_per_s", "1/s", "higher", "host"},
	{"setup_s", "s", "lower", "host"},
	{"peak_rss_mb", "MB", "lower", "host"},
	{"sim_wips", "wips", "higher", "simulated"},
}

var perLayerMetrics = []metricDef{
	{"simnet.events_per_eval", "count", "lower", "simulated"},
	{"simnet.ns_per_event", "ns", "lower", "host"},
	{"simnet.heap_depth", "count", "lower", "simulated"},
	{"simnet.sched_step_ns", "ns", "lower", "host"},
	{"websim.pages_per_eval", "count", "lower", "simulated"},
	{"websim.ns_per_page", "ns", "lower", "host"},
	{"rng.zipf_ns", "ns", "lower", "host"},
	{"rng.pareto_ns", "ns", "lower", "host"},
	{"webobj.object_ns", "ns", "lower", "host"},
	{"webobj.popularity_ns", "ns", "lower", "host"},
	{"core.build_ms", "ms", "lower", "host"},
	{"core.build_ms_tail", "ms", "lower", "host"},
	{"core.eval_ms_p50", "ms", "lower", "host"},
	{"core.eval_ms_tail", "ms", "lower", "host"},
	{"core.pool_busy_frac", "frac", "higher", "host"},
	{"core.pool_wait_ms", "ms", "lower", "host"},
	{"core.spec_useful_frac", "frac", "higher", "simulated"},
	{"harmony.restarts", "count", "lower", "simulated"},
	{"evalcache.hit_frac", "frac", "higher", "simulated"},
	{"evalcache.hit_us", "us", "lower", "host"},
	{"evalcache.hit_us_tail", "us", "lower", "host"},
	{"evalcache.key_us", "us", "lower", "host"},
	{"evalcache.key_us_tail", "us", "lower", "host"},
	{"evalcache.bytes", "bytes", "lower", "host"},
	{"harmony.propose_us", "us", "lower", "host"},
	{"harmony.propose_us_tail", "us", "lower", "host"},
	{"harmony.commit_us", "us", "lower", "host"},
	{"harmony.commit_us_tail", "us", "lower", "host"},
	{"telemetry.write_ms", "ms", "lower", "host"},
	{"telemetry.bytes", "bytes", "lower", "host"},
	{"telemetry.overhead_frac", "frac", "lower", "host"},
	{"go.cpu_s", "s", "lower", "host"},
	{"go.alloc_mb", "MB", "lower", "host"},
	{"go.gc_cycles", "count", "lower", "host"},
	{"go.gc_pause_ms", "ms", "lower", "host"},
	{"websim.page_fail_frac", "frac", "lower", "simulated"},
	{"tpcw.resp_p90_s", "s", "lower", "simulated"},
	{"proxy.hit_frac", "frac", "higher", "simulated"},
	{"reconfig.moves", "count", "higher", "simulated"},
	{"reconfig.after_wips", "wips", "higher", "simulated"},
	{"ledger.unexplained_frac", "frac", "lower", "host"},
	{"ledger.trace_overhead_frac", "frac", "lower", "host"},
}

const (
	// setupProbes is how many extra processes each untraced run starts
	// only to time set-up; setup_s is the median over them and the
	// experiment processes.
	setupProbes = 21
	// simSeeds is how many experiments every untraced run makes at least;
	// sim_wips is the median over them, so it depends on the seed alone.
	simSeeds = 3
	// runDeadline caps one benchmark invocation per workload.
	runDeadline = 170 * time.Second
	// buildDir holds build outputs and span dumps, inside the checkout.
	buildDir = ".bench_build/perfbench"
	// t0Env passes the parent's spawn time to a child, for setup_s.
	t0Env = "PERFBENCH_T0"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// childReport is what one child process measured, sent as one JSON line.
type childReport struct {
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s"` // the experiment alone
	Evals      int                `json:"evals"`
	Digest     string             `json:"digest"`
	TeleDigest string             `json:"tele_digest"`
	SimWIPS    float64            `json:"sim_wips"`
	Failures   []string           `json:"failures"`
	AllocMB    float64            `json:"alloc_mb"`
	GCCycles   uint32             `json:"gc_cycles"`
	GCPauseMS  float64            `json:"gc_pause_ms"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Notes      map[string]string  `json:"notes,omitempty"`

	// Filled in by the parent from the child's resource usage.
	peakRSSMB float64
	cpuS      float64
}

// childMain runs one process's share of a benchmark run: "setup" builds
// the workload's first lab and exits, "run" runs the experiment through
// the program's runner, "traced" runs the traced path.
func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	mode := fs.String("mode", "", "setup, run or traced")
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed")
	spans := fs.String("spans", "", "traced: write spans here at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	t0, err := strconv.ParseInt(os.Getenv(t0Env), 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: child needs %s: %v\n", t0Env, err)
		return 2
	}
	e := newExperiment(w, *seed, quickScale)
	w.firstLab(e)
	rep := childReport{SetupS: time.Since(time.Unix(0, t0)).Seconds(), Evals: e.iters}

	var out *outcome
	switch *mode {
	case "setup":
	case "run":
		start := time.Now()
		out = w.run(e)
		rep.WallS = time.Since(start).Seconds()
	case "traced":
		tr := newTracer()
		var l *layers
		out, l = w.traced(e, tr)
		rep.WallS = tr.named("workload." + w.name)[0].dur().Seconds()
		rep.Layers, rep.Notes = l.vals, l.notes
		rep.Failures = append(rep.Failures, l.failures...)
		if *spans != "" {
			if err := tr.write(*spans); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
				return 1
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown child mode %q\n", *mode)
		return 2
	}
	if out != nil {
		var failures []string
		rep.Digest, failures = out.check()
		rep.Failures = append(rep.Failures, failures...)
		rep.TeleDigest = out.teleDigest()
		rep.SimWIPS = out.simWIPS
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
	rep.GCCycles = ms.NumGC
	rep.GCPauseMS = float64(ms.PauseTotalNs) / 1e6
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

// spawn runs one child and returns its report, or why it failed.
func spawn(ctx context.Context, args ...string) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, append([]string{"child"}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", t0Env, time.Now().UnixNano()))
	// A child must not outlive the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("timed out: %w", ctx.Err())
		}
		return nil, err
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("unreadable child report: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		rep.cpuS = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
	}
	return &rep, nil
}

// result is one workload's outcome within one invocation.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]float64
	notes     map[string]string
	problems  []string
}

func newResult(w *workload) *result {
	return &result{workload: w.name, metrics: map[string]float64{}, notes: map[string]string{}}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// accept counts a finished child run. The run fails unless its process
// completed, it passed its own checks, and its digests match every earlier
// run of the same workload and seed in this checkout. A good run's report
// is returned.
func (r *result) accept(label string, seed uint64, rep *childReport, err error, dl *digestLedger) *childReport {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", label, err)
		return nil
	}
	if len(rep.Failures) > 0 {
		r.fail("%s: %s", label, strings.Join(rep.Failures, "; "))
		return nil
	}
	if msg := dl.check(r.workload, seed, rep); msg != "" {
		r.fail("%s: %s", label, msg)
		return nil
	}
	return rep
}

// experimentSeed is the seed of a run's i-th experiment: the run's seed
// itself, then rng.TaskSeed(seed, i). A run averages over several
// independent inputs, and the same seed always yields the same sequence.
func experimentSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	return rng.TaskSeed(seed, uint64(i))
}

// measureUntraced runs the set-up probes, then experiments on successive
// experiment seeds, one process each: at least simSeeds of them, and more
// until the next would overrun the time budget.
func measureUntraced(w *workload, seed uint64, budget time.Duration, dl *digestLedger) *result {
	r := newResult(w)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	args := func(mode string, s uint64) []string {
		return []string{"--mode", mode, "--workload", w.name, "--seed", strconv.FormatUint(s, 10)}
	}

	var setups, evalRates, rss, wips []float64
	var wipsNote []string
	for i := 0; i < setupProbes; i++ {
		rep, err := spawn(ctx, args("setup", seed)...)
		if err != nil {
			r.attempted++
			r.fail("set-up probe %d: %v", i, err)
			continue
		}
		setups = append(setups, rep.SetupS)
	}
	start := time.Now()
	runs := 0
	for i := 0; ; i++ {
		runs++
		s := experimentSeed(seed, i)
		rep, err := spawn(ctx, args("run", s)...)
		if good := r.accept(fmt.Sprintf("run %d (seed %d)", i, s), s, rep, err, dl); good != nil {
			setups = append(setups, good.SetupS)
			evalRates = append(evalRates, float64(good.Evals)/good.WallS)
			rss = append(rss, good.peakRSSMB)
			if i < simSeeds {
				wips = append(wips, good.SimWIPS)
				wipsNote = append(wipsNote, fmt.Sprintf("%d:%.12s", s, good.Digest))
			}
		}
		elapsed := time.Since(start)
		per := elapsed / time.Duration(i+1)
		deadline, _ := ctx.Deadline()
		if time.Until(deadline) < 2*per || (i+1 >= simSeeds && elapsed+per > budget) {
			break
		}
	}
	if runs < simSeeds {
		r.fail("only %d of the %d experiments sim_wips needs ran before the deadline", runs, simSeeds)
	}
	r.metrics["evals_per_s"] = median(evalRates)
	r.notes["evals_per_s"] = fmt.Sprintf("median of %d experiments", len(evalRates))
	r.metrics["setup_s"] = median(setups)
	r.notes["setup_s"] = fmt.Sprintf("median of %d processes", len(setups))
	r.metrics["peak_rss_mb"] = median(rss)
	r.notes["peak_rss_mb"] = fmt.Sprintf("median of %d experiments", len(rss))
	r.metrics["sim_wips"] = median(wips)
	r.notes["sim_wips"] = "median over seed:digest " + strings.Join(wipsNote, " ")
	return r
}

// measureTraced runs the experiment on the run's seed once untraced and
// once traced, each in its own process, and reports the per-layer metrics.
func measureTraced(w *workload, seed uint64, dl *digestLedger) *result {
	r := newResult(w)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	common := []string{"--workload", w.name, "--seed", strconv.FormatUint(seed, 10)}
	spansPath := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))

	rep, err := spawn(ctx, append([]string{"--mode", "run"}, common...)...)
	plain := r.accept("untraced run", seed, rep, err, dl)
	rep, err = spawn(ctx, append([]string{"--mode", "traced", "--spans", spansPath}, common...)...)
	traced := r.accept("traced run", seed, rep, err, dl)
	if traced != nil {
		for k, v := range traced.Layers {
			r.metrics[k] = v
		}
		for k, v := range traced.Notes {
			r.notes[k] = v
		}
		r.notes["spans"] = spansPath
	}
	if plain != nil {
		r.metrics["go.cpu_s"] = plain.cpuS
		r.metrics["go.alloc_mb"] = plain.AllocMB
		r.metrics["go.gc_cycles"] = float64(plain.GCCycles)
		r.metrics["go.gc_pause_ms"] = plain.GCPauseMS
		r.notes["go.cpu_s"] = fmt.Sprintf("untraced run, %.2f s wall", plain.WallS)
	}
	if plain != nil && traced != nil {
		r.metrics["ledger.trace_overhead_frac"] = traced.WallS/plain.WallS - 1
		r.notes["ledger.trace_overhead_frac"] = fmt.Sprintf("%.2f s traced / %.2f s untraced", traced.WallS, plain.WallS)
	}
	return r
}

// digestLedger remembers the result digests of every run made in this
// checkout, so a run whose seed was run before must reproduce them.
type digestLedger struct {
	path    string
	Digests map[string][2]string `json:"digests"` // "workload/seed" -> result, telemetry
}

func loadDigestLedger(path string) *digestLedger {
	dl := &digestLedger{path: path, Digests: map[string][2]string{}}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, dl); err != nil || dl.Digests == nil {
			dl.Digests = map[string][2]string{} // unreadable: start over
		}
	}
	return dl
}

// check compares a run with the recorded digests of its workload and seed,
// recording them if none are; it returns what differs.
func (dl *digestLedger) check(workload string, seed uint64, rep *childReport) string {
	key := fmt.Sprintf("%s/%d", workload, seed)
	got := [2]string{rep.Digest, rep.TeleDigest}
	want, ok := dl.Digests[key]
	if !ok {
		dl.Digests[key] = got
		return ""
	}
	if got != want {
		return fmt.Sprintf("result digest %.12s/%.12s differs from an earlier run's %.12s/%.12s", got[0], got[1], want[0], want[1])
	}
	return ""
}

// save writes the ledger atomically.
func (dl *digestLedger) save() error {
	data, err := json.Marshal(dl)
	if err != nil {
		return err
	}
	tmp := dl.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, dl.path)
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tune-cold, shift-spec, reconfig-instrumented or all")
	seed := fs.Uint64("seed", 1, "seed for the lab and the tuner")
	seconds := fs.Int("seconds", 30, "how long the untraced runs of one workload measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := workloadByName(*name); w != nil {
		ws = []*workload{w}
	}
	if len(ws) == 0 || fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: usage: --workload <%s|all> --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}

	defs := endToEndMetrics
	if *trace == 1 {
		defs = perLayerMetrics
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dl := loadDigestLedger(filepath.Join(buildDir, "digests.json"))
	out := bufio.NewWriter(stdout)
	for _, w := range ws {
		var r *result
		if *trace == 1 {
			r = measureTraced(w, *seed, dl)
		} else {
			r = measureUntraced(w, *seed, time.Duration(*seconds)*time.Second, dl)
		}
		report(out, r, defs, *seed, *trace)
		final.Attempted += r.attempted
		final.Failed += r.failed
		final.Correct = final.Correct && r.failed == 0
		for _, d := range defs {
			key := d.name
			if len(ws) > 1 {
				key = w.name + "." + d.name
			}
			final.Metrics[key] = metric{Value: r.metrics[d.name], Unit: d.unit}
		}
	}
	if err := dl.save(); err != nil {
		fmt.Fprintf(stderr, "perfbench: saving digests: %v\n", err)
		return 1
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if err := out.Flush(); err != nil {
		return 1
	}
	return 0
}

// report prints one workload's human-readable table.
func report(w io.Writer, r *result, defs []metricDef, seed uint64, trace int) {
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "== %s seed=%d trace=%d: %d runs attempted, %d failed, failed_frac %.4f\n",
		r.workload, seed, trace, r.attempted, r.failed, frac)
	for _, p := range r.problems {
		fmt.Fprintf(w, "   FAILED %s\n", p)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "   %-28s %16.6g %-6s %-9s %s\n", d.name, r.metrics[d.name], d.unit, d.kind, r.notes[d.name])
	}
	if p, ok := r.notes["spans"]; ok {
		fmt.Fprintf(w, "   spans written to %s\n", p)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
