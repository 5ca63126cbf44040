package main

import (
	"fmt"
	"time"

	"webharmony/internal/cluster"
	"webharmony/internal/core"
	"webharmony/internal/rng"
	"webharmony/internal/simnet"
	"webharmony/internal/webobj"
	"webharmony/internal/websim"
)

// replayed is what the profiled replay of sampled evaluations measured.
type replayed struct {
	buildMS      []float64 // core.NewLab of the evaluation lab
	nsPerEvent   []float64 // unprofiled simulation time / profiled event count
	events       []float64
	depth        []float64 // Engine.Pending samples during the window
	pages        []float64
	nsPerPage    []float64
	proxyHits    uint64
	proxyLookups uint64
	failures     []string
}

// depthProbes is how many Engine.Pending samples a replay takes per
// evaluation window.
const depthProbes = 64

// replay re-runs up to n sampled evaluations the way Lab.EvalConfig runs
// them: once plain and timed, once with the event profiler, a span sink
// and a heap-depth probe attached. Both must measure what the traced run
// measured, since an evaluation is a pure function of its key.
func replay(recs []evalRecord, n int) replayed {
	var rp replayed
	for _, r := range sampleRecords(recs, n) {
		cfg := r.cfg
		cfg.Seed = rng.TaskSeed(r.cfg.Seed, r.key.Hash())
		cfg.Workers = 1
		cfg.EvalCache = nil
		build := func() *core.Lab {
			lab := core.NewLab(cfg, r.w)
			for node, nc := range r.nodes {
				lab.Sys.SetNodeConfig(node, nc)
			}
			return lab
		}

		t0 := time.Now()
		plain := build()
		t1 := time.Now()
		m := plain.MeasureIteration(true)
		sim := time.Since(t1)
		rp.buildMS = append(rp.buildMS, float64(t1.Sub(t0))/float64(time.Millisecond))

		lab := build()
		prof := simnet.NewProfile()
		lab.Sys.Eng.SetProfile(prof)
		sink := websim.NewSpanSink(0)
		lab.Sys.SetSpanSink(sink)
		eng := lab.Sys.Eng
		every := (cfg.Warm + cfg.Measure + cfg.Cool) / depthProbes
		probes := 0
		var probe func()
		probe = func() {
			rp.depth = append(rp.depth, float64(eng.Pending()))
			probes++
			eng.Schedule(every, probe)
		}
		eng.Schedule(every, probe)
		mp := lab.MeasureIteration(true)

		if m.WIPS != r.wips || mp.WIPS != r.wips {
			rp.failures = append(rp.failures, fmt.Sprintf(
				"replay of %s measured %v plain and %v profiled, the run measured %v", r.w, m.WIPS, mp.WIPS, r.wips))
		}
		events := float64(prof.Events()) - float64(probes)
		rp.events = append(rp.events, events)
		rp.nsPerEvent = append(rp.nsPerEvent, float64(sim)/events)
		rp.pages = append(rp.pages, float64(sink.Pages()))
		rp.nsPerPage = append(rp.nsPerPage, float64(sim)/float64(sink.Pages()))
		for _, node := range plain.Sys.Cluster.TierNodes(cluster.TierProxy) {
			if s, ok := plain.Sys.ProxyStats(node.ID()); ok {
				rp.proxyHits += s.HitsMem + s.HitsDisk
				rp.proxyLookups += s.HitsMem + s.HitsDisk + s.Misses
			}
		}
	}
	return rp
}

// buildSamples is how many extra warm builds of the workload's first lab
// calibrate core.build_ms.
const buildSamples = 100

func calibrateBuilds(e *experiment) []float64 {
	out := make([]float64, buildSamples)
	for i := range out {
		t0 := time.Now()
		e.w.firstLab(e)
		out[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	return out
}

// Calibration rungs time the lowest layers in isolation, in batches, and
// report the median batch's cost per call.
const (
	rungBatch   = 1024
	rungBudget  = 60 * time.Millisecond
	rungMinRuns = 15
)

// rungSink keeps the rung results live so the compiler cannot drop the calls.
var rungSink uint64

func rung(op func(i int)) float64 {
	var perOp []float64
	start := time.Now()
	for len(perOp) < rungMinRuns || time.Since(start) < rungBudget {
		t0 := time.Now()
		for i := 0; i < rungBatch; i++ {
			op(i)
		}
		perOp = append(perOp, float64(time.Since(t0))/rungBatch)
	}
	return median(perOp)
}

// calibrate runs the rungs at the workload's catalog scale (the catalog
// and popularity exponents websim and tpcw use) and at the event-heap
// depth the workload's engine holds.
func calibrate(l *layers, cfg core.LabConfig, depth int) {
	cat := webobj.NewCatalog(cfg.Scale, cfg.Seed^0xCA7A106)
	src := rng.New(cfg.Seed)
	zipf := rng.NewZipf(src.Split(1), cat.CacheableTotal(), 0.95)
	pop := webobj.NewPopularity(cat, src.Split(2), 0.95)
	ids := make([]uint64, rungBatch)
	for i := range ids {
		ids[i] = uint64(src.Intn(int(cat.Total())))
	}
	l.set("rng.zipf_ns", rung(func(int) { rungSink += zipf.Next() }))
	l.set("rng.pareto_ns", rung(func(int) { rungSink += uint64(src.Pareto(3<<10, 1.5)) }))
	l.set("webobj.object_ns", rung(func(i int) { rungSink += uint64(cat.Object(ids[i]).Size) }))
	l.set("webobj.popularity_ns", rung(func(int) { rungSink += uint64(pop.Next().Size) }))

	// Schedule+Step pairs on a heap held at the measured depth. Delays are
	// drawn up front, exponential with a 1 s mean, so the rung times the
	// heap and not the rng.
	var eng simnet.Engine
	delays := make([]float64, rungBatch)
	for i := range delays {
		delays[i] = src.Exp(1)
	}
	noop := func() {}
	for i := 0; i < max(depth, 1); i++ {
		eng.Schedule(delays[i%rungBatch], noop)
	}
	l.set("simnet.sched_step_ns", rung(func(i int) {
		eng.Schedule(delays[i], noop)
		eng.Step()
	}))
	l.notes["simnet.sched_step_ns"] = fmt.Sprintf("heap depth %d", max(depth, 1))
}
