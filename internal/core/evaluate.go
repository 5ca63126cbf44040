package core

import (
	"fmt"

	"webharmony/internal/cluster"
	"webharmony/internal/evalcache"
	"webharmony/internal/harmony"
	"webharmony/internal/param"
	"webharmony/internal/rng"
	"webharmony/internal/telemetry"
	"webharmony/internal/tpcw"
	"webharmony/internal/websim"
)

// This file is the hermetic evaluation engine (DESIGN.md §10): every
// configuration evaluation the tuning experiment runners make —
// tuning iterations, baseline windows, Figure 4 matrix cells, tuned-sweep
// arms, Figure 5 candidates — runs in a fresh per-evaluation lab whose rng streams derive from
// the evaluation's canonical key (the node configurations, workload, lab
// shape, window lengths and base seed). The measurement is therefore a
// pure function of that key:
//
//   - re-proposing an already-measured lattice point (integer rounding,
//     simplex shrink steps near convergence, post-restart re-anchoring)
//     reproduces the earlier measurement exactly, so the content-addressed
//     memo table in internal/evalcache can return the stored value with
//     zero observable difference — cache on/off is byte-identical *by
//     construction*, not by test luck;
//   - the per-config (not per-step) streams are a common-random-numbers
//     discipline: two configurations are always compared under streams
//     that depend only on themselves, never on when they were proposed.
//
// Live-cluster paths keep their history: RunFigure7/RunAdaptive measure a
// continuously-running system whose node moves and cache states are the
// object of study, so they stay on Lab.MeasureIteration.

// evalSpec assembles the canonical key inputs of one evaluation from the
// lab configuration. Telemetry/profiling fields and Workers are excluded:
// they never change what a run measures.
func evalSpec(cfg LabConfig, w tpcw.Workload, nodeCfgs map[int]param.Config) evalcache.Spec {
	return evalcache.Spec{
		ProxyNodes: cfg.ProxyNodes,
		AppNodes:   cfg.AppNodes,
		DBNodes:    cfg.DBNodes,
		WorkLines:  cfg.WorkLines,
		Browsers:   cfg.Browsers,
		ThinkMean:  cfg.ThinkMean,
		Scale:      cfg.Scale,
		Sessions:   cfg.Sessions,
		Warm:       cfg.Warm,
		Measure:    cfg.Measure,
		Cool:       cfg.Cool,
		Seed:       cfg.Seed,
		Workload:   w.String(),
		Nodes:      nodeCfgs,
	}
}

// EvalConfig measures one node→configuration assignment hermetically: a
// fresh lab is built from the parent's configuration with rng streams
// seeded from the evaluation key, the configurations are staged, and one
// warm/measure/cool window runs. Nodes absent from nodeCfgs keep their
// space defaults (the runners always pass complete assignments).
//
// When the parent configuration carries an EvalCache, the evaluation is
// memoized under its key. Memoization is bypassed while telemetry is
// attached: a cache hit would skip the per-evaluation recorder/sampler
// registration and change the telemetry byte stream, and instrumented
// runs are for inspection, not wall-clock. Results are identical either
// way — an evaluation is a pure function of its key.
func (l *Lab) EvalConfig(w tpcw.Workload, nodeCfgs map[int]param.Config, unit string) websim.Measurement {
	key := evalSpec(l.Cfg, w, nodeCfgs).Key()
	compute := func() websim.Measurement {
		cfg := telemetrySub(l.Cfg, unit)
		cfg.Seed = rng.TaskSeed(l.Cfg.Seed, key.Hash())
		cfg.Workers = 1
		f := NewLab(cfg, w)
		for node, nc := range nodeCfgs {
			f.Sys.SetNodeConfig(node, nc)
		}
		return f.MeasureIteration(true)
	}
	if cache := l.Cfg.EvalCache; cache != nil && l.Cfg.Telemetry == nil {
		m, _ := cache.Do(key, compute)
		return m
	}
	return compute()
}

// tierNodeConfigs expands a per-tier configuration map to the complete
// node→configuration assignment of the lab's current layout (every node
// of a tier gets its own clone of the tier's configuration).
func (l *Lab) tierNodeConfigs(cfgs map[cluster.Tier]param.Config) map[int]param.Config {
	out := make(map[int]param.Config)
	for t, cfg := range cfgs {
		for _, n := range l.Sys.Cluster.TierNodes(t) {
			out[n.ID()] = cfg.Clone()
		}
	}
	return out
}

// lookahead bounds how many upcoming tuning iterations a hermeticRun
// peeks and evaluates as one batch. It is a constant, NOT a function of
// LabConfig.Workers: the set of evaluated (and, after a restart,
// discarded) candidates — and with it every telemetry unit name and rng
// stream — must be identical at every worker count for the output
// byte-equality contract to hold. 16 covers the full initial simplex of
// any one tier's space (10 vertices for the db tier); the default
// strategy's 24-vertex initial simplex spans two batches.
const lookahead = 16

// hermeticRun drives a tuning strategy through hermetic per-evaluation
// labs. The sequential formulation — step the strategy, measure, report —
// hides parallelism because each proposal may depend on the previous
// report, but the tuners are ask/tell state machines whose moves are
// often tell-independent (Nelder-Mead evaluates dim+1 initial vertices
// after every restart before any cost can steer it). So each batch:
//
//  1. peeks up to depth upcoming proposals (Strategy.Lookahead —
//     non-committing),
//  2. measures every proposal via EvalConfig, fanned out over
//     LabConfig.Workers, and
//  3. commits the measurements in proposal order (Strategy.CommitStep),
//     re-checking the lookahead before each commit and discarding the
//     rest of the batch the moment a commit changes Strategy.Epoch — a
//     shift-detection restart re-anchored the search — then re-peeks.
//
// An evaluation is a pure function of its key, so the committed sequence
// is identical at any depth and any worker count; depth 1 is the
// sequential formulation. The authoritative lab's engine never runs, so
// trace timestamps come from a virtual clock advancing one full iteration
// window per committed step — the cadence an engine clock would follow.
type hermeticRun struct {
	lab    *Lab
	depth  int
	vt     float64 // virtual clock for trace timestamps
	window float64
	step   int // global committed-iteration index
}

// newHermeticRun prepares a hermetic tuning run on the given lab that
// evaluates up to depth proposals per batch (lookahead outside tests).
func newHermeticRun(lab *Lab, depth int) *hermeticRun {
	return &hermeticRun{lab: lab, depth: depth, window: lab.Cfg.Warm + lab.Cfg.Measure + lab.Cfg.Cool}
}

// options attaches the virtual-clock trace observer, unless the caller
// supplied an observer of its own. No-op when the lab has no telemetry.
func (h *hermeticRun) options(opts harmony.Options) harmony.Options {
	if opts.Observe == nil && opts.Observer == nil {
		opts.Observe = traceObserve(h.lab.rec, func() float64 { return h.vt })
	}
	return opts
}

// run commits n tuning iterations of st under workload w. The telemetry
// unit of each evaluation carries the strategy epoch and the global step
// index, so a step re-evaluated after discarded speculation registers
// under a fresh recorder name.
func (h *hermeticRun) run(st *harmony.Strategy, w tpcw.Workload, n int) {
	for n > 0 {
		props := st.Lookahead(min(h.depth, n))
		if len(props) == 0 {
			panic("core: hermetic run peeked no proposal")
		}
		epoch, start := st.Epoch(), h.step
		ms := make([]websim.Measurement, len(props))
		ForEach(h.lab.Cfg.Workers, len(props), func(j int) {
			ms[j] = h.lab.EvalConfig(w, props[j], fmt.Sprintf("e%02d/s%05d", epoch, start+j))
		})
		for j := range props {
			// The batch was peeked under this epoch, so the check can
			// only fail on a runner bug — but a silently corrupted search
			// is far worse than a panic, so verify every commit.
			if next := st.Lookahead(1); len(next) == 0 || !nodeConfigsEqual(next[0], props[j]) {
				panic(fmt.Sprintf("core: batched candidate %d diverged from the authoritative search", start+j))
			}
			h.vt += h.window
			st.CommitStep(ms[j].WIPS, ms[j].LineWIPS)
			h.step++
			n--
			if st.Epoch() != epoch {
				// The commit restarted the search: candidates j+1.. were
				// measured for proposals the re-anchored sessions will
				// never make. Record and drop them.
				for k := j + 1; k < len(props); k++ {
					h.lab.rec.Event(telemetry.Event{
						Session: "speculate", T: h.vt, Iter: start + k,
						Kind: "discard", Move: "speculate-discard",
					})
				}
				break
			}
		}
	}
}

// nodeConfigsEqual reports whether two node→configuration assignments
// stage identical configurations on identical node sets.
func nodeConfigsEqual(a, b map[int]param.Config) bool {
	if len(a) != len(b) {
		return false
	}
	for n, cfg := range a {
		o, ok := b[n]
		if !ok || !cfg.Equal(o) {
			return false
		}
	}
	return true
}
