package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"

	"webharmony/internal/core"
	"webharmony/internal/evalcache"
	"webharmony/internal/harmony"
	"webharmony/internal/stats"
	"webharmony/internal/telemetry"
	"webharmony/internal/tpcw"
)

// scale fixes the size of every workload: the lab and the experiment
// lengths. quickScale is what the benchmark measures; tinyScale exists so
// the tests can push every workload through both paths in seconds.
type scale struct {
	lab       func() core.LabConfig
	iters     int // Figure 4 tuning iterations
	evalIters int // Figure 4 windows per baseline and matrix cell
	phaseLen  int // Figure 5 iterations per workload phase
	phases    int // Figure 5 phases
}

var (
	quickScale = scale{lab: core.QuickLab, iters: 80, evalIters: 6, phaseLen: 20, phases: 4}
	tinyScale  = scale{lab: core.TinyLab, iters: 8, evalIters: 2, phaseLen: 4, phases: 4}
)

// benchWorkers is the experiment's own pool size: two workers, never
// more than the host has CPUs. Results are identical at any worker count.
func benchWorkers() int { return min(2, runtime.NumCPU()) }

// figure5Seq and figure5Shift define shift-spec: the Figure 5 workload
// cycle with a shift factor low enough that restarts fire (at webtune's
// default of 0.25 none does at this scale).
var figure5Seq = []tpcw.Workload{tpcw.Browsing, tpcw.Shopping, tpcw.Ordering}

const figure5Shift = 0.05

// spanSampleEvery is webtune's default -span-sample.
const spanSampleEvery = 997

// workload is one named benchmark input: an experiment runner of the
// program, its configuration derived from the seed, and its checks.
type workload struct {
	name string
	why  string
	// firstLab builds the experiment's first lab, for set-up timing.
	firstLab func(e *experiment) *core.Lab
	// run drives the experiment through the program's public runner.
	run func(e *experiment) *outcome
	// traced drives the runner's loop itself, spanning every layer call.
	traced func(e *experiment, tr *tracer) (*outcome, *layers)
}

// experiment is one workload instance at one seed and scale.
type experiment struct {
	w     *workload
	sc    scale
	cfg   core.LabConfig // Seed and Workers set; no cache, no telemetry
	opts  harmony.Options
	iters int // evaluations answered per run (tuning iterations + windows)
}

// outcome is what one run produced, reduced to what the checks need.
type outcome struct {
	result  any     // the runner's result, exported as the digest
	simWIPS float64 // the workload's headline simulated throughput
	wips    []float64
	tele    []byte // telemetry bytes written, reconfig-instrumented only
}

var workloads = []*workload{
	{
		name:     "tune-cold",
		why:      "Figure 4 with a fresh evaluation cache: one lab per evaluation, three tuning loops on two workers, cache hits and inserts",
		firstLab: func(e *experiment) *core.Lab { return core.NewLab(e.hermeticCfg(), tpcw.Browsing) },
		run:      runFigure4,
		traced:   tracedFigure4,
	},
	{
		name:     "shift-spec",
		why:      "Figure 5 speculative driver with shift restarts that discard speculation; the cache is written but almost never hit",
		firstLab: func(e *experiment) *core.Lab { return core.NewLab(e.hermeticCfg(), figure5Seq[0]) },
		run:      runFigure5,
		traced:   tracedFigure5,
	},
	{
		name: "reconfig-instrumented",
		why:  "Figure 7a on one long-lived lab with every telemetry sink on: per-event cost with profiler and spans, no cache, no lab per evaluation",
		firstLab: func(e *experiment) *core.Lab {
			cfg, _ := e.figure7Cfg()
			fo := core.Figure7a()
			cfg.ProxyNodes, cfg.AppNodes, cfg.DBNodes = fo.ProxyNodes, fo.AppNodes, fo.DBNodes
			return core.NewLab(cfg, fo.Start)
		},
		run:    runFigure7,
		traced: tracedFigure7,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// newExperiment derives every input of a run from the seed: the lab seed
// and the tuner seed are both the benchmark seed, as webtune -seed sets
// them.
func newExperiment(w *workload, seed uint64, sc scale) *experiment {
	cfg := sc.lab()
	cfg.Seed = seed
	cfg.Workers = benchWorkers()
	e := &experiment{w: w, sc: sc, cfg: cfg, opts: harmony.Options{Seed: seed}}
	switch w.name {
	case "tune-cold":
		e.iters = 3*(sc.iters+sc.evalIters) + 9*sc.evalIters
	case "shift-spec":
		e.opts.ShiftFactor = figure5Shift
		e.iters = sc.phaseLen * sc.phases
	case "reconfig-instrumented":
		e.iters = core.Figure7a().Total
	}
	return e
}

// hermeticCfg is the lab configuration of the hermetic workloads: a fresh
// evaluation cache per run.
func (e *experiment) hermeticCfg() core.LabConfig {
	cfg := e.cfg
	cfg.EvalCache = evalcache.New()
	return cfg
}

// figure7Cfg is webtune's figure7a configuration: 3.5x the browsers for
// the 7-node cluster, a 12 s warm-up, and a collector carrying the trace,
// metrics, simprofile, latency spans and span samples.
func (e *experiment) figure7Cfg() (core.LabConfig, *telemetry.Collector) {
	cfg := e.cfg
	cfg.Browsers = cfg.Browsers * 7 / 2
	cfg.Warm = max(cfg.Warm, 12)
	col := telemetry.NewCollector()
	cfg.Telemetry = col
	cfg.SimProfile = true
	cfg.Spans = true
	cfg.SpanSampleEvery = spanSampleEvery
	return cfg.WithTelemetryUnit("figure7a"), col
}

func runFigure4(e *experiment) *outcome {
	res := core.RunFigure4(e.hermeticCfg(), e.sc.iters, e.sc.evalIters, e.opts)
	return figure4Outcome(res)
}

func figure4Outcome(res *core.Figure4Result) *outcome {
	out := &outcome{result: res}
	for _, w := range tpcw.Workloads() {
		out.simWIPS += res.Matrix[w][w] / 3
		out.wips = append(out.wips, res.Default[w], res.Runs[w].BestWIPS)
		out.wips = append(out.wips, res.Matrix[w][:]...)
		out.wips = append(out.wips, res.Runs[w].Baseline...)
		out.wips = append(out.wips, res.Runs[w].Tuning...)
	}
	return out
}

func runFigure5(e *experiment) *outcome {
	res := core.RunFigure5(e.hermeticCfg(), figure5Seq, e.sc.phaseLen, e.sc.phases, e.opts)
	return &outcome{result: res, simWIPS: stats.MeanOf(res.WIPS), wips: res.WIPS}
}

func runFigure7(e *experiment) *outcome {
	cfg, col := e.figure7Cfg()
	res := core.RunFigure7(cfg, core.Figure7a(), nil)
	return figure7Outcome(res, writeTelemetry(col))
}

// figure7Outcome takes as sim_wips the mean WIPS of the windows up to and
// including the reconfiguration check, which the check's decision cannot
// change. The windows after it are not used: at this scale the check moves
// no node on about one seed in four (seed 7 is the first), and those runs
// stay at the pre-move throughput, so any post-check figure swings by a
// third between seeds. The traced run reports that figure, which is After
// when a node moved, as the per-layer reconfig.after_wips.
func figure7Outcome(res *core.Figure7Result, tele []byte) *outcome {
	out := &outcome{result: res, simWIPS: stats.MeanOf(res.WIPS[:core.Figure7a().CheckAt+1]), tele: tele}
	out.wips = res.WIPS
	if res.Moved {
		out.wips = append(append([]float64(nil), res.WIPS...), res.Before, res.After)
	}
	return out
}

// writeTelemetry writes every sink webtune's -trace, -metrics,
// -simprofile, -latency and -spans flags write, into memory.
func writeTelemetry(col *telemetry.Collector) []byte {
	var buf bytes.Buffer
	for _, write := range []func(io.Writer) error{
		col.WriteTrace, col.WriteMetrics, col.WriteSimProfile, col.WriteLatency, col.WriteSpans,
	} {
		if err := write(&buf); err != nil {
			panic(fmt.Sprintf("perfbench: writing telemetry: %v", err))
		}
	}
	return buf.Bytes()
}

// check returns the run's result digest — a hash of its canonical JSON
// export — and every output check it fails.
func (o *outcome) check() (digest string, failures []string) {
	var buf bytes.Buffer
	if err := core.WriteJSON(&buf, o.result); err != nil {
		failures = append(failures, fmt.Sprintf("result does not export: %v", err))
	}
	for i, v := range o.wips {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			failures = append(failures, fmt.Sprintf("WIPS value %d is %v, want finite and positive", i, v))
			break
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), failures
}

// teleDigest hashes the telemetry bytes; empty when the run wrote none.
func (o *outcome) teleDigest() string {
	if o.tele == nil {
		return ""
	}
	sum := sha256.Sum256(o.tele)
	return hex.EncodeToString(sum[:])
}
