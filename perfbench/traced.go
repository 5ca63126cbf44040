package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"webharmony/internal/cluster"
	"webharmony/internal/core"
	"webharmony/internal/evalcache"
	"webharmony/internal/harmony"
	"webharmony/internal/monitor"
	"webharmony/internal/param"
	"webharmony/internal/reconfig"
	"webharmony/internal/stats"
	"webharmony/internal/telemetry"
	"webharmony/internal/tpcw"
	"webharmony/internal/websim"
)

// The traced paths below re-drive each experiment runner's loop from its
// public calls, so that every call gets its own span. Each must reproduce
// the untraced runner's result bit for bit; the result digests are
// compared on every traced run.

// figure5Lookahead mirrors the speculative Figure 5 runner's constant
// lookahead depth.
const figure5Lookahead = 16

// replaySamples is how many simulated evaluations are replayed with the
// event profiler attached to count events per evaluation.
const replaySamples = 8

// evalRecord is one simulated (cache-missing) evaluation, kept so it can
// be replayed: an evaluation is a pure function of its key.
type evalRecord struct {
	key   evalcache.Key
	cfg   core.LabConfig // the evaluating lab's configuration
	w     tpcw.Workload
	nodes map[int]param.Config
	wips  float64
}

// hermeticTrace wraps the calls the hermetic runners make (Lab.EvalConfig,
// core.NewLab, core.ForEach) with spans and keeps what the per-layer
// metrics need.
type hermeticTrace struct {
	tr *tracer

	mu        sync.Mutex
	seen      map[string]bool // keys looked up so far; the first lookup simulates
	misses    []evalRecord
	errors    uint64 // failed interactions over all evaluations answered
	attempted uint64
	respP90   []float64
}

func newHermeticTrace(tr *tracer) *hermeticTrace {
	return &hermeticTrace{tr: tr, seen: make(map[string]bool)}
}

// evalSpec mirrors core's canonical evaluation key inputs.
func evalSpec(cfg core.LabConfig, w tpcw.Workload, nodes map[int]param.Config) evalcache.Spec {
	return evalcache.Spec{
		ProxyNodes: cfg.ProxyNodes, AppNodes: cfg.AppNodes, DBNodes: cfg.DBNodes,
		WorkLines: cfg.WorkLines, Browsers: cfg.Browsers, ThinkMean: cfg.ThinkMean,
		Scale: cfg.Scale, Sessions: cfg.Sessions,
		Warm: cfg.Warm, Measure: cfg.Measure, Cool: cfg.Cool,
		Seed: cfg.Seed, Workload: w.String(), Nodes: nodes,
	}
}

// eval is one Lab.EvalConfig call. The key is computed in its own span
// first (EvalConfig computes it again inside), which also tells a cache
// hit from a simulated evaluation.
func (h *hermeticTrace) eval(parent int, lab *core.Lab, w tpcw.Workload, nodes map[int]param.Config, unit string) websim.Measurement {
	var key evalcache.Key
	h.tr.do("evalcache.key", parent, func(int) { key = evalSpec(lab.Cfg, w, nodes).Key() })
	h.mu.Lock()
	hit := h.seen[key.String()]
	h.seen[key.String()] = true
	h.mu.Unlock()

	id := h.tr.begin("core.EvalConfig", parent)
	m := lab.EvalConfig(w, nodes, unit)
	h.tr.endHit(id, hit)

	h.mu.Lock()
	defer h.mu.Unlock()
	if !hit {
		cp := make(map[int]param.Config, len(nodes))
		for n, c := range nodes {
			cp[n] = c.Clone()
		}
		h.misses = append(h.misses, evalRecord{key: key, cfg: lab.Cfg, w: w, nodes: cp, wips: m.WIPS})
	}
	h.errors += m.Counters.Errors
	h.attempted += m.Counters.Total() + m.Counters.Errors
	h.respP90 = append(h.respP90, m.RespP90)
	return m
}

func (h *hermeticTrace) newLab(parent int, cfg core.LabConfig, w tpcw.Workload) *core.Lab {
	var lab *core.Lab
	h.tr.do("core.NewLab", parent, func(int) { lab = core.NewLab(cfg, w) })
	return lab
}

// forEach is core.ForEach with a span around the fan-out and one per task.
func (h *hermeticTrace) forEach(parent, workers, n int, task func(i, parent int)) {
	h.tr.do("core.ForEach", parent, func(pool int) {
		core.ForEach(workers, n, func(i int) {
			h.tr.do("core.task", pool, func(id int) { task(i, id) })
		})
	})
}

// tierNodeConfigs mirrors core's per-tier to per-node expansion.
func tierNodeConfigs(lab *core.Lab, cfgs map[cluster.Tier]param.Config) map[int]param.Config {
	out := make(map[int]param.Config)
	for t, cfg := range cfgs {
		for _, n := range lab.Sys.Cluster.TierNodes(t) {
			out[n.ID()] = cfg.Clone()
		}
	}
	return out
}

// tierConfigs mirrors core's node to per-tier reduction.
func tierConfigs(lab *core.Lab, nodeCfgs map[int]param.Config) map[cluster.Tier]param.Config {
	out := make(map[cluster.Tier]param.Config)
	for _, t := range cluster.Tiers() {
		nodes := lab.Sys.Cluster.TierNodes(t)
		if len(nodes) == 0 {
			continue
		}
		if cfg, ok := nodeCfgs[nodes[0].ID()]; ok {
			out[t] = cfg
		}
	}
	return out
}

// measureConfig is Lab.MeasureConfig's loop.
func (h *hermeticTrace) measureConfig(parent int, lab *core.Lab, cfgs map[cluster.Tier]param.Config, n int) []float64 {
	nodes := tierNodeConfigs(lab, cfgs)
	w := lab.Driver.Workload()
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, h.eval(parent, lab, w, nodes, fmt.Sprintf("m%04d", i)).WIPS)
	}
	return out
}

// tuneWorkload is core.TuneWorkload's loop: Strategy.Lookahead(1), then
// Lab.EvalConfig, then Strategy.CommitStep.
func (h *hermeticTrace) tuneWorkload(parent int, cfg core.LabConfig, w tpcw.Workload, iters, baselineIters int, opts harmony.Options) *core.SingleWorkloadResult {
	res := &core.SingleWorkloadResult{Workload: w}
	base := h.newLab(parent, cfg, w)
	res.Baseline = h.measureConfig(parent, base, core.DefaultConfigs(), baselineIters)

	lab := h.newLab(parent, cfg, w)
	var st *harmony.Strategy
	h.tr.do("harmony.NewStrategy", parent, func(int) {
		st = harmony.NewStrategy(harmony.StrategyDefault, lab, 0, opts)
	})
	for i := 0; i < iters; i++ {
		var props []map[int]param.Config
		h.tr.do("harmony.propose", parent, func(int) { props = st.Lookahead(1) })
		if len(props) == 0 {
			panic("perfbench: strategy peeked no proposal")
		}
		m := h.eval(parent, lab, w, props[0], fmt.Sprintf("e%02d/s%05d", st.Epoch(), i))
		h.tr.do("harmony.commit", parent, func(int) { st.CommitStep(m.WIPS, m.LineWIPS) })
	}
	res.Tuning = st.Perf()
	res.BestWIPS, _ = st.Best()
	res.BestConfigs = tierConfigs(lab, st.BestNodeConfigs())

	baseMean := stats.MeanOf(res.Baseline)
	half := res.Tuning[len(res.Tuning)/2:]
	res.AvgImprovement = stats.Improvement(baseMean, stats.MeanOf(half))
	res.FracBetter = stats.FractionAbove(half, baseMean)
	return res
}

// tracedFigure4 is core.RunFigure4 driven call by call.
func tracedFigure4(e *experiment, tr *tracer) (*outcome, *layers) {
	cfg := e.hermeticCfg()
	h := newHermeticTrace(tr)
	root := tr.begin("workload."+e.w.name, 0)

	res := &core.Figure4Result{
		Best: make(map[tpcw.Workload]map[cluster.Tier]param.Config),
		Runs: make(map[tpcw.Workload]*core.SingleWorkloadResult),
	}
	ws := tpcw.Workloads()
	runs := make([]*core.SingleWorkloadResult, len(ws))
	h.forEach(root, cfg.Workers, len(ws), func(i, p int) {
		runs[i] = h.tuneWorkload(p, cfg, ws[i], e.sc.iters, e.sc.evalIters, e.opts)
	})
	for i, w := range ws {
		res.Runs[w] = runs[i]
		res.Best[w] = runs[i].BestConfigs
		res.Default[w] = stats.MeanOf(runs[i].Baseline)
	}
	h.forEach(root, cfg.Workers, len(ws)*len(ws), func(k, p int) {
		from, on := ws[k/len(ws)], ws[k%len(ws)]
		lab := h.newLab(p, cfg, on)
		res.Matrix[from][on] = stats.MeanOf(h.measureConfig(p, lab, res.Best[from], e.sc.evalIters))
	})
	for _, w := range ws {
		res.Improvement[w] = stats.Improvement(res.Default[w], res.Matrix[w][w])
	}
	tr.end(root)

	l := h.layers(e, cfg, root)
	return figure4Outcome(res), l
}

// tracedFigure5 is the speculative Figure 5 runner driven call by call:
// Strategy.Lookahead(16), then core.ForEach over Lab.EvalConfig, then one
// Strategy.CommitStep per candidate until an epoch change discards the
// rest of the batch.
func tracedFigure5(e *experiment, tr *tracer) (*outcome, *layers) {
	cfg := e.hermeticCfg()
	h := newHermeticTrace(tr)
	root := tr.begin("workload."+e.w.name, 0)

	seq, phaseLen := figure5Seq, e.sc.phaseLen
	auth := h.newLab(root, cfg, seq[0])
	var st *harmony.Strategy
	tr.do("harmony.NewStrategy", root, func(int) {
		st = harmony.NewStrategy(harmony.StrategyDuplication, auth, 0, e.opts)
	})
	res := &core.Figure5Result{PhaseLen: phaseLen}
	step, evaluated := 0, 0
	for p := 0; p < e.sc.phases; p++ {
		w := seq[p%len(seq)]
		if p > 0 {
			res.Switches = append(res.Switches, p*phaseLen)
		}
		for remaining := phaseLen; remaining > 0; {
			var props []map[int]param.Config
			tr.do("harmony.propose", root, func(int) { props = st.Lookahead(min(figure5Lookahead, remaining)) })
			epoch, batchStart := st.Epoch(), step
			specs := make([]websim.Measurement, len(props))
			h.forEach(root, cfg.Workers, len(props), func(j, task int) {
				specs[j] = h.eval(task, auth, w, props[j], fmt.Sprintf("e%02d/s%05d", epoch, batchStart+j))
			})
			evaluated += len(props)
			for j := range props {
				var next []map[int]param.Config
				tr.do("harmony.check", root, func(int) { next = st.Lookahead(1) })
				if len(next) == 0 || !nodeConfigsEqual(next[0], props[j]) {
					panic(fmt.Sprintf("perfbench: speculative candidate %d diverged", batchStart+j))
				}
				tr.do("harmony.commit", root, func(int) { st.CommitStep(specs[j].WIPS, specs[j].LineWIPS) })
				res.WIPS = append(res.WIPS, specs[j].WIPS)
				res.Workload = append(res.Workload, w)
				step++
				remaining--
				if st.Epoch() != epoch {
					break
				}
			}
		}
	}
	for _, sess := range st.Sessions() {
		res.Restarts += sess.Resets()
	}
	res.Recovery = recoveryIters(res.WIPS, res.Switches, phaseLen)
	tr.end(root)

	l := h.layers(e, cfg, root)
	l.set("core.spec_useful_frac", float64(step)/float64(evaluated))
	l.set("harmony.restarts", float64(res.Restarts))
	return &outcome{result: res, simWIPS: stats.MeanOf(res.WIPS), wips: res.WIPS}, l
}

// nodeConfigsEqual mirrors the speculative runner's per-commit check.
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

// recoveryIters mirrors core's Figure 5 recovery metric: per switch, the
// iterations until the phase first re-reaches 90% of its second-half mean.
func recoveryIters(wips []float64, switches []int, phaseLen int) []int {
	var out []int
	for _, sw := range switches {
		rec := core.RecoveryNone
		if sw >= 0 && sw < len(wips) {
			phase := wips[sw:min(sw+phaseLen, len(wips))]
			steady := stats.MeanOf(phase[len(phase)/2:])
			for i, v := range phase {
				if v >= 0.9*steady {
					rec = i + 1
					break
				}
			}
		}
		out = append(out, rec)
	}
	return out
}

// layers derives the per-layer metrics of a traced hermetic run: span
// timings, pool use, cache counters, a profiled replay of sampled
// evaluations, the calibration rungs and the ledger.
func (h *hermeticTrace) layers(e *experiment, cfg core.LabConfig, root int) *layers {
	tr := h.tr
	l := newLayers()
	cs := cfg.EvalCache.Stats()
	if int(cs.Misses) != len(h.misses) {
		l.fail(fmt.Sprintf("cache simulated %d evaluations, the trace saw %d", cs.Misses, len(h.misses)))
	}
	rp := replay(h.misses, replaySamples)
	l.failures = append(l.failures, rp.failures...)

	var evalMS, hitUS []float64
	for _, s := range tr.named("core.EvalConfig") {
		if s.Hit {
			hitUS = append(hitUS, float64(s.dur())/float64(time.Microsecond))
		} else {
			evalMS = append(evalMS, float64(s.dur())/float64(time.Millisecond))
		}
	}
	builds := append(durations(tr.named("core.NewLab"), time.Millisecond), rp.buildMS...)
	builds = append(builds, calibrateBuilds(e)...)
	l.timing("core.build_ms", "core.build_ms_tail", summarize(builds))
	l.timing("core.eval_ms_p50", "core.eval_ms_tail", summarize(evalMS))
	l.timing("evalcache.hit_us", "evalcache.hit_us_tail", summarize(hitUS))
	l.timing("evalcache.key_us", "evalcache.key_us_tail", summarize(durations(tr.named("evalcache.key"), time.Microsecond)))
	l.timing("harmony.propose_us", "harmony.propose_us_tail", summarize(durations(tr.named("harmony.propose"), time.Microsecond)))
	l.timing("harmony.commit_us", "harmony.commit_us_tail", summarize(durations(tr.named("harmony.commit"), time.Microsecond)))
	l.set("evalcache.hit_frac", cs.HitRate())
	l.set("evalcache.bytes", float64(cs.Bytes))
	l.poolMetrics(tr, cfg.Workers)

	l.set("simnet.events_per_eval", median(rp.events))
	l.set("simnet.ns_per_event", median(rp.nsPerEvent))
	l.set("simnet.heap_depth", median(rp.depth))
	l.set("websim.pages_per_eval", median(rp.pages))
	l.set("websim.ns_per_page", median(rp.nsPerPage))
	l.set("proxy.hit_frac", ratio(rp.proxyHits, rp.proxyLookups))
	l.set("websim.page_fail_frac", ratio(h.errors, h.attempted))
	l.set("tpcw.resp_p90_s", median(h.respP90))
	calibrate(l, cfg, int(median(rp.depth)+0.5))

	tuner := tr.total("harmony.propose") + tr.total("harmony.check") + tr.total("harmony.commit") + tr.total("harmony.NewStrategy")
	cache := tr.total("evalcache.key")
	for _, s := range tr.named("core.EvalConfig") {
		if s.Hit {
			cache += s.dur()
		}
	}
	sim := float64(len(h.misses)) * l.vals["simnet.events_per_eval"] * l.vals["simnet.ns_per_event"]
	nBuilds := float64(len(tr.named("core.NewLab")) + len(h.misses))
	explained := sim/1e9 + nBuilds*l.vals["core.build_ms"]/1e3 + (tuner + cache).Seconds()
	l.ledger(tr, root, explained)
	return l
}

// tracedFigure7 is core.RunFigure7 driven call by call, with the
// collector attached exactly as the untraced run attaches it. A plain run
// without telemetry follows, for the instrumentation overhead.
func tracedFigure7(e *experiment, tr *tracer) (*outcome, *layers) {
	cfg, col := e.figure7Cfg()
	fo := core.Figure7a()
	cfg.ProxyNodes, cfg.AppNodes, cfg.DBNodes = fo.ProxyNodes, fo.AppNodes, fo.DBNodes
	root := tr.begin("workload."+e.w.name, 0)

	var lab *core.Lab
	tr.do("core.NewLab", root, func(int) { lab = core.NewLab(cfg, fo.Start) })
	tierCfgs := core.GenerousConfigs()
	for t, c := range tierCfgs {
		lab.Sys.SetTierConfig(t, c)
	}
	lab.Sys.Restart()

	res := &core.Figure7Result{MovedAt: -1}
	res.Timeline = monitor.NewTimeline(lab.Sys.Eng, lab.Sys.Cluster, (cfg.Warm+cfg.Measure+cfg.Cool)/2)
	res.Timeline.Start()
	costs := labCosts(lab)
	prof, sink := lab.Recorder().SimProfile(), lab.Sys.SpanSink()
	var events, pages, depth, respP90 []float64
	var errs, attempted uint64
	var windowNS float64
	for i := 0; i < fo.Total; i++ {
		if i == fo.SwitchAt && fo.SwitchTo != fo.Start {
			lab.Driver.SetWorkload(fo.SwitchTo)
		}
		ev0, pg0 := prof.Events(), sink.Pages()
		var m websim.Measurement
		id := tr.do("core.MeasureIteration", root, func(int) { m = lab.MeasureIteration(false) })
		windowNS += float64(tr.spanDur(id))
		events = append(events, float64(prof.Events()-ev0))
		pages = append(pages, float64(sink.Pages()-pg0))
		depth = append(depth, float64(lab.Sys.Eng.Pending()))
		errs += m.Counters.Errors
		attempted += m.Counters.Total() + m.Counters.Errors
		respP90 = append(respP90, m.RespP90)
		res.WIPS = append(res.WIPS, m.WIPS)
		res.Layouts = append(res.Layouts, lab.Sys.Cluster.Layout())

		if i == fo.CheckAt && !res.Moved {
			readings := lab.LastReadings()
			var d reconfig.Decision
			var ok bool
			tr.do("reconfig.Decide", root, func(int) {
				d, ok = reconfig.Decide(readings, monitor.DefaultThresholds(), lab.Sys.Cluster,
					costs, monitor.DefaultUrgencyOrder())
			})
			if ok {
				res.Decision = d
				res.Moved = true
				res.MovedAt = i
				lab.Sys.MoveNode(d.Node, d.To, tierCfgs[d.To])
				lab.RecordEvent(telemetry.Event{Session: "reconfig", Kind: "move", Move: d.String(), Iter: i})
			}
		}
	}
	res.Timeline.Stop()
	if res.Moved {
		preStart := fo.SwitchAt + 1
		if fo.SwitchAt < 0 {
			preStart = fo.CheckAt / 2
		}
		res.Before = stats.MeanOf(res.WIPS[preStart : res.MovedAt+1])
		res.After = stats.MeanOf(res.WIPS[res.MovedAt+2:])
		res.Improvement = stats.Improvement(res.Before, res.After)
	}
	var tele []byte
	tr.do("telemetry.write", root, func(int) { tele = writeTelemetry(col) })
	tr.end(root)
	out := figure7Outcome(res, tele)

	l := newLayers()
	instrumented := tr.spanDur(root) - tr.total("telemetry.write")
	plainCfg := e.cfg
	plainCfg.Browsers, plainCfg.Warm = cfg.Browsers, cfg.Warm
	t0 := time.Now()
	plain := figure7Outcome(core.RunFigure7(plainCfg, fo, nil), nil)
	plainWall := time.Since(t0)
	plainDigest, _ := plain.check()
	if d, _ := out.check(); d != plainDigest {
		l.fail("Figure 7a measured differently with telemetry attached")
	}

	totalEvents := 0.0
	for _, n := range events {
		totalEvents += n
	}
	totalPages := 0.0
	for _, n := range pages {
		totalPages += n
	}
	l.set("simnet.events_per_eval", median(events))
	l.set("simnet.ns_per_event", windowNS/totalEvents)
	l.set("simnet.heap_depth", median(depth))
	l.set("websim.pages_per_eval", median(pages))
	l.set("websim.ns_per_page", windowNS/totalPages)
	builds := append(durations(tr.named("core.NewLab"), time.Millisecond), calibrateBuilds(e)...)
	l.timing("core.build_ms", "core.build_ms_tail", summarize(builds))
	l.timing("core.eval_ms_p50", "core.eval_ms_tail", summarize(durations(tr.named("core.MeasureIteration"), time.Millisecond)))
	l.set("telemetry.write_ms", float64(tr.total("telemetry.write"))/float64(time.Millisecond))
	l.set("telemetry.bytes", float64(len(tele)))
	// Both runs dispatch the same events but for the sampler's two per
	// window, so the per-event ratio is the wall-clock ratio.
	l.set("telemetry.overhead_frac", instrumented.Seconds()/plainWall.Seconds()-1)
	l.set("websim.page_fail_frac", ratio(errs, attempted))
	l.set("tpcw.resp_p90_s", median(respP90))
	var hits, lookups uint64
	for _, n := range lab.Sys.Cluster.TierNodes(cluster.TierProxy) {
		if s, ok := lab.Sys.ProxyStats(n.ID()); ok {
			hits += s.HitsMem + s.HitsDisk
			lookups += s.HitsMem + s.HitsDisk + s.Misses
		}
	}
	l.set("proxy.hit_frac", ratio(hits, lookups))
	if res.Moved {
		l.set("reconfig.moves", 1)
	}
	l.set("reconfig.after_wips", stats.MeanOf(res.WIPS[fo.CheckAt+2:]))
	calibrate(l, cfg, int(median(depth)+0.5))

	explained := float64(fo.Total)*l.vals["simnet.events_per_eval"]*l.vals["simnet.ns_per_event"]/1e9 +
		float64(len(tr.named("core.NewLab")))*l.vals["core.build_ms"]/1e3 +
		tr.total("reconfig.Decide").Seconds()
	l.ledger(tr, root, explained)
	return out, l
}

// labCosts mirrors core's reconfiguration cost terms from live queues.
func labCosts(lab *core.Lab) reconfig.Costs {
	c := reconfig.DefaultCosts()
	c.Jobs = func(node int) int {
		n := lab.Sys.Cluster.Node(node)
		if n == nil {
			return 0
		}
		return n.CPU().Busy() + n.CPU().QueueLen() + n.Disk().QueueLen() + n.NIC().QueueLen()
	}
	return c
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layers is the per-layer metric set of one traced run.
type layers struct {
	vals     map[string]float64
	notes    map[string]string // how a value was taken, for the text report
	failures []string
}

func newLayers() *layers {
	l := &layers{vals: make(map[string]float64), notes: make(map[string]string)}
	for _, m := range perLayerMetrics {
		l.vals[m.name] = 0 // a layer off the workload's path reports 0
	}
	return l
}

func (l *layers) set(name string, v float64) {
	if _, ok := l.vals[name]; !ok {
		panic("perfbench: unregistered per-layer metric " + name)
	}
	l.vals[name] = v
}

func (l *layers) fail(msg string) { l.failures = append(l.failures, msg) }

// timing records a span population's median and tail.
func (l *layers) timing(medName, tailName string, t timing) {
	l.set(medName, t.Median)
	l.set(tailName, t.Tail)
	l.notes[medName] = fmt.Sprintf("p50 of %d", t.N)
	if t.TailPct > 0 {
		l.notes[tailName] = fmt.Sprintf("p%g of %d", t.TailPct, t.N)
	} else {
		l.notes[tailName] = fmt.Sprintf("no tail: %d samples", t.N)
	}
}

// poolMetrics reads the core.ForEach spans: the share of worker capacity
// spent in tasks, and how long a task waited for a worker.
func (l *layers) poolMetrics(tr *tracer, workers int) {
	tasks := tr.named("core.task")
	byPool := make(map[int][]span)
	for _, s := range tasks {
		byPool[s.Parent] = append(byPool[s.Parent], s)
	}
	var busy, capacity time.Duration
	var waits []float64
	for _, p := range tr.named("core.ForEach") {
		ts := byPool[p.ID]
		capacity += time.Duration(min(workers, len(ts))) * p.dur()
		for _, t := range ts {
			busy += t.dur()
			waits = append(waits, float64(t.Start-p.Start)/float64(time.Millisecond))
		}
	}
	if capacity > 0 {
		l.set("core.pool_busy_frac", float64(busy)/float64(capacity))
	}
	mean := 0.0
	for _, w := range waits {
		mean += w / float64(len(waits))
	}
	l.set("core.pool_wait_ms", mean)
	l.notes["core.pool_wait_ms"] = fmt.Sprintf("mean of %d tasks", len(waits))
}

// ledger sets ledger.unexplained_frac: the share of busy worker time the
// layer numbers do not account for. Busy time is the pool's task time plus
// the coordinating goroutine's time outside the pool.
func (l *layers) ledger(tr *tracer, root int, explainedS float64) {
	busy := tr.spanDur(root) - tr.total("core.ForEach") + tr.total("core.task")
	l.set("ledger.unexplained_frac", 1-explainedS/busy.Seconds())
}

// spanDur returns the duration of closed span id.
func (t *tracer) spanDur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].dur()
}

// sampleRecords picks n records spread evenly over their key order, so the
// sample does not depend on which worker finished first.
func sampleRecords(recs []evalRecord, n int) []evalRecord {
	sorted := append([]evalRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key.String() < sorted[j].key.String() })
	if len(sorted) <= n {
		return sorted
	}
	out := make([]evalRecord, n)
	for i := range out {
		out[i] = sorted[i*len(sorted)/n]
	}
	return out
}
