package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's own files (the program carries no tracing of its own).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer was created
	End    time.Duration `json:"end_ns"`
	// Hit marks an evalcache-answered evaluation (core.EvalConfig only).
	Hit bool `json:"hit,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, at exit.
// Safe for concurrent use by the worker pool.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 4096)} }

// begin opens a span under parent (0 = root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) { t.endHit(id, false) }

// endHit closes span id and records whether a cache answered it.
func (t *tracer) endHit(id int, hit bool) {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Hit = hit
}

// do runs fn inside a span and returns the span's ID.
func (t *tracer) do(name string, parent int, fn func(id int)) int {
	id := t.begin(name, parent)
	fn(id)
	t.end(id)
	return id
}

// named returns the closed spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.named(name) {
		d += s.dur()
	}
	return d
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tailLadder lists the percentiles a tail may report, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyondTail = 10

// percentile returns the nearest-rank p-th percentile of sorted samples
// and how many samples lie strictly beyond its rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank one past itself.
	idx := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n - idx - 1
}

// timing summarizes one span population: the median and the highest
// ladder percentile that still has minBeyondTail samples beyond it.
type timing struct {
	N       int
	Median  float64
	Tail    float64 // 0 when no ladder percentile qualifies
	TailPct float64 // 0 when no ladder percentile qualifies
}

func summarize(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{N: len(s)}
	t.Median, _ = percentile(s, 50)
	for _, p := range tailLadder {
		if v, beyond := percentile(s, p); beyond >= minBeyondTail {
			t.Tail, t.TailPct = v, p
			break
		}
	}
	return t
}

// durations converts span durations to floats in the given unit.
func durations(spans []span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

// median returns the median of xs (mean of the middle pair for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
