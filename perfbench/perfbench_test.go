package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, metricName)
		}
		if !unitName.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, unitName)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %s: better is %q", m.name, m.better)
		}
		if m.kind != "host" && m.kind != "simulated" {
			t.Errorf("metric %s: kind is %q", m.name, m.kind)
		}
		if seen[m.name] {
			t.Errorf("metric %s defined twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, metricName)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// code prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if kind == "end_to_end" && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEndMetrics)
	compare("per_layer", b.PerLayer, perLayerMetrics)
}

func TestTailSelection(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		return out
	}
	for _, tc := range []struct {
		n       int
		median  float64
		tail    float64
		tailPct float64
	}{
		{n: 10000, median: 5000, tail: 9990, tailPct: 99.9},
		{n: 1000, median: 500, tail: 990, tailPct: 99},
		{n: 246, median: 123, tail: 234, tailPct: 95},
		{n: 100, median: 50, tail: 90, tailPct: 90},
		{n: 40, median: 20, tail: 30, tailPct: 75},
		{n: 24, median: 12, tail: 12, tailPct: 50},
		{n: 20, median: 10, tail: 10, tailPct: 50},
		// Too few samples for any tail: ten must lie beyond it.
		{n: 19, median: 10},
		{n: 1, median: 1},
		{n: 0},
	} {
		got := summarize(seq(tc.n))
		if got.N != tc.n || got.Median != tc.median || got.Tail != tc.tail || got.TailPct != tc.tailPct {
			t.Errorf("n=%d: got %+v, want median %v tail p%v = %v", tc.n, got, tc.median, tc.tailPct, tc.tail)
		}
	}
}

func TestPercentileBeyond(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if v, beyond := percentile(s, 90); v != 9 || beyond != 1 {
		t.Errorf("p90 of 1..10 = %v with %d beyond, want 9 with 1", v, beyond)
	}
	if v, beyond := percentile(s, 0); v != 1 || beyond != 9 {
		t.Errorf("p0 of 1..10 = %v with %d beyond, want 1 with 9", v, beyond)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tune-cold", "--trace", "2"},
		{"--workload", "tune-cold", "--seconds", "0"},
		{"--workload", "tune-cold", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := parentMain(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a result: %q", args, out.String())
		}
	}
}

// TestTinySmoke pushes every workload through the untraced runner and the
// traced path at TinyLab scale: both must produce the same result digest,
// the traced path must report every per-layer metric, and its own checks
// (replay purity, cache accounting, plain-vs-instrumented equality) must
// pass.
func TestTinySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := newExperiment(w, 1, tinyScale)
			plain := w.run(e)
			d1, _ := plain.check()

			tr := newTracer()
			traced, l := w.traced(e, tr)
			d2, _ := traced.check()
			if d1 != d2 {
				t.Errorf("traced digest %.12s, untraced %.12s", d2, d1)
			}
			if plain.teleDigest() != traced.teleDigest() {
				t.Errorf("traced telemetry digest %.12s, untraced %.12s", traced.teleDigest(), plain.teleDigest())
			}
			if plain.simWIPS != traced.simWIPS || plain.simWIPS <= 0 {
				t.Errorf("sim_wips %v traced, %v untraced", traced.simWIPS, plain.simWIPS)
			}
			for _, f := range l.failures {
				t.Errorf("traced check: %s", f)
			}
			for _, name := range measuredOn(w.name) {
				if l.vals[name] <= 0 {
					t.Errorf("traced path reported %s = %v, want a measurement", name, l.vals[name])
				}
			}
			if len(tr.named("workload."+w.name)) != 1 {
				t.Errorf("no root span for %s", w.name)
			}
		})
	}
}

// measuredOn lists the per-layer metrics a workload's traced path must
// measure (a positive value); the rest are off its path and read 0.
func measuredOn(workload string) []string {
	all := []string{
		"simnet.events_per_eval", "simnet.ns_per_event", "simnet.heap_depth", "simnet.sched_step_ns",
		"websim.pages_per_eval", "websim.ns_per_page", "rng.zipf_ns", "rng.pareto_ns",
		"webobj.object_ns", "webobj.popularity_ns", "core.build_ms", "core.build_ms_tail",
		"core.eval_ms_p50", "tpcw.resp_p90_s", "proxy.hit_frac",
	}
	hermetic := []string{
		"core.pool_busy_frac", "core.pool_wait_ms", "evalcache.key_us", "evalcache.bytes",
		"harmony.propose_us", "harmony.commit_us",
	}
	switch workload {
	case "tune-cold":
		return append(append(all, hermetic...), "evalcache.hit_frac", "evalcache.hit_us")
	case "shift-spec":
		return append(append(all, hermetic...), "core.spec_useful_frac")
	default:
		return append(all, "telemetry.write_ms", "telemetry.bytes", "reconfig.after_wips")
	}
}
