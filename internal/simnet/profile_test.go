package simnet

import (
	"fmt"
	"strings"
	"testing"
)

// folded returns p's WriteFolded output.
func folded(t *testing.T, p *Profile) string {
	t.Helper()
	var sb strings.Builder
	if err := p.WriteFolded(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// recordStacks gives each stack one dispatch on a fresh engine recording
// into p, weighted by the matching dt: the stack's frames are entered, an
// event is scheduled dt seconds ahead, and the engine runs it. An empty
// stack schedules outside any frame.
func recordStacks(p *Profile, stacks []string, dts []float64) {
	e := &Engine{}
	e.SetProfile(p)
	for i, stack := range stacks {
		var frames []Frame
		if stack != "" {
			for _, name := range strings.Split(stack, ";") {
				frames = append(frames, e.Enter(name))
			}
		}
		e.Schedule(dts[i], func() {})
		for j := len(frames) - 1; j >= 0; j-- {
			frames[j].Exit()
		}
		e.Run()
	}
}

// TestProfileAttributionInheritance: events scheduled during a dispatch
// inherit the dispatching event's stack; Enter extends it for the span of
// the frame and Exit restores it.
func TestProfileAttributionInheritance(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)

	root := e.EnterRoot("req")
	e.Schedule(1, func() {
		f := e.Enter("inner")
		e.Schedule(1, func() {}) // stack req;inner
		f.Exit()
		e.Schedule(2, func() {}) // stack req (restored)
	})
	root.Exit()
	e.Run()

	// req: the first dispatch (1s) and the restored one (1s after the
	// inner one); req;inner: one dispatch 1s after the first.
	if got, want := folded(t, p), "req 2000000\nreq;inner 1000000\n"; got != want {
		t.Fatalf("folded:\n%s\nwant:\n%s", got, want)
	}
	if got := p.Events(); got != 3 {
		t.Fatalf("Events = %d, want 3", got)
	}
}

// TestProfileEnterRootResets: EnterRoot replaces the whole stack, so
// request chains cannot grow without bound across logical work units, and
// its Exit restores the stack it replaced.
func TestProfileEnterRootResets(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	f1 := e.Enter("a")
	f2 := e.Enter("b")
	r := e.EnterRoot("fresh")
	e.Schedule(1, func() {})
	r.Exit()
	e.Schedule(2, func() {}) // back under a;b
	f2.Exit()
	f1.Exit()
	e.Run()
	if got, want := folded(t, p), "a;b 1000000\nfresh 1000000\n"; got != want {
		t.Fatalf("folded:\n%s\nwant:\n%s", got, want)
	}
}

// TestProfileDepthCap: at maxFrames the stack stops growing and keeps its
// prefix; frames pushed past the cap are dropped, and their Exits restore
// the capped stack, not a shorter one.
func TestProfileDepthCap(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	var names []string
	for i := 0; i < maxFrames; i++ {
		names = append(names, fmt.Sprintf("f%d", i))
		e.Enter(names[i])
	}
	capped := strings.Join(names, ";")
	e.Schedule(1, func() {}) // at the cap
	over := e.Enter("over")
	e.Schedule(2, func() {}) // pushed past the cap: same stack
	over.Exit()
	e.Schedule(3, func() {}) // still the capped stack
	e.Run()
	if got, want := folded(t, p), capped+" 3000000\n"; got != want {
		t.Fatalf("folded:\n%s\nwant:\n%s", got, want)
	}
	if got := strings.Count(capped, ";") + 1; got != maxFrames {
		t.Fatalf("capped stack has %d frames, want %d", got, maxFrames)
	}
	if p.Events() != 3 {
		t.Fatalf("Events = %d, want 3", p.Events())
	}
}

// TestProfileUnattributed: dispatches outside any frame land under the
// sentinel stack rather than an empty one.
func TestProfileUnattributed(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	e.Schedule(1, func() {})
	e.Run()
	if got, want := folded(t, p), unattributed+" 1000000\n"; got != want {
		t.Fatalf("folded = %q, want %q", got, want)
	}
}

// TestProfileSimTimeWeights: each dispatch is weighted by the clock
// advance it causes, so per-stack sim-time sums to total simulated time.
func TestProfileSimTimeWeights(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	r := e.EnterRoot("a")
	e.Schedule(2, func() {})
	r.Exit()
	r = e.EnterRoot("b")
	e.Schedule(5, func() {})
	r.Exit()
	e.Run()
	// b gets 3s: 5 minus the 2 already elapsed.
	if got, want := folded(t, p), "a 2000000\nb 3000000\n"; got != want {
		t.Fatalf("folded:\n%s\nwant:\n%s", got, want)
	}
	if got := p.SimTime(); got != e.Now() {
		t.Fatalf("total simTime %g != clock %g", got, e.Now())
	}
}

// TestProfileStationAttribution: a station job's completion is charged to
// the submitter's stack plus a "<station>/svc" frame — even when the job
// waited in the queue and was started by another request's completion.
func TestProfileStationAttribution(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	st := NewStation(e, "cpu", 1, 1)
	r := e.EnterRoot("first")
	st.Submit(1, nil)
	r.Exit()
	r = e.EnterRoot("second")
	st.Submit(1, nil) // queues behind first; first's completion starts it
	r.Exit()
	e.Run()
	if got, want := folded(t, p), "first;cpu/svc 1000000\nsecond;cpu/svc 1000000\n"; got != want {
		t.Fatalf("folded:\n%s\nwant:\n%s", got, want)
	}
}

// TestProfilePoolGrantAttribution: a queued Acquire's grant work is
// charged to the acquirer's stack (plus "<pool>/grant"), not to whichever
// request happened to release the token.
func TestProfilePoolGrantAttribution(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	pool := NewTokenPool(e, "threads", 1, -1)
	st := NewStation(e, "cpu", 1, 1)
	r := e.EnterRoot("holder")
	pool.Acquire(func() {
		e.Schedule(1, func() { pool.Release() })
	}, nil)
	r.Exit()
	r = e.EnterRoot("waiter")
	pool.Acquire(func() {
		st.Submit(1, func() { pool.Release() })
	}, nil)
	r.Exit()
	e.Run()
	want := "holder 1000000\nwaiter;threads/grant;cpu/svc 1000000\n"
	if got := folded(t, p); got != want {
		t.Fatalf("folded:\n%s\nwant:\n%s", got, want)
	}
}

// TestProfileFoldedDeterministicAndMergeOrder: WriteFolded output is
// byte-identical across re-runs, and merging the same per-unit profiles in
// the collector's fixed order reproduces it regardless of which engine
// recorded which half.
func TestProfileFoldedDeterministicAndMergeOrder(t *testing.T) {
	build := func(seedFrames []string) *Profile {
		e := &Engine{}
		p := NewProfile()
		e.SetProfile(p)
		for i, name := range seedFrames {
			r := e.EnterRoot(name)
			d := float64(i%5) + 0.125
			e.Schedule(d, func() {
				f := e.Enter("leaf")
				e.Schedule(d/2, func() {})
				f.Exit()
			})
			r.Exit()
		}
		e.Run()
		return p
	}
	frames := []string{"a", "b", "c", "a", "b", "a"}
	out1, out2 := folded(t, build(frames)), folded(t, build(frames))
	if out1 != out2 {
		t.Fatalf("folded output differs across identical runs:\n%s\n----\n%s", out1, out2)
	}
	// Merge in fixed order from two builds; must equal merging fresh copies.
	m1 := NewProfile()
	m1.Merge(build(frames[:3]))
	m1.Merge(build(frames[3:]))
	m2 := NewProfile()
	m2.Merge(build(frames[:3]))
	m2.Merge(build(frames[3:]))
	if folded(t, m1) != folded(t, m2) {
		t.Fatal("fixed-order merge is not byte-stable")
	}
}

// TestProfileMergeOverlappingStacks: two engines intern the same stacks in
// different orders, so their ids differ; Merge must match stacks by their
// folded names and sum both weights per stack.
func TestProfileMergeOverlappingStacks(t *testing.T) {
	a, b := NewProfile(), NewProfile()
	recordStacks(a, []string{"x;y", "x;y", "z"}, []float64{1, 2, 0.5})
	recordStacks(b, []string{"z", "w", "x;y", "x"}, []float64{0.25, 4, 8, 16})
	m := NewProfile()
	m.Merge(a)
	m.Merge(b)
	want := "w 4000000\nx 16000000\nx;y 11000000\nz 750000\n"
	if got := folded(t, m); got != want {
		t.Fatalf("merged folded:\n%s\nwant:\n%s", got, want)
	}
	if got := m.Events(); got != a.Events()+b.Events() || got != 7 {
		t.Fatalf("merged Events = %d, want %d + %d = 7", got, a.Events(), b.Events())
	}
	if got := m.SimTime(); got != a.SimTime()+b.SimTime() {
		t.Fatalf("merged SimTime = %g, want %g", got, a.SimTime()+b.SimTime())
	}
	// Merging into a profile that is recording on its own engine adds to
	// the stacks it already holds.
	recordStacks(a, []string{"x"}, []float64{1})
	a.Merge(b)
	want = "w 4000000\nx 17000000\nx;y 11000000\nz 750000\n"
	if got := folded(t, a); got != want {
		t.Fatalf("merge into a recording profile:\n%s\nwant:\n%s", got, want)
	}
}

// TestProfileSwapMidRun: events queued while profile A was attached carry
// their stacks into profile B when B is attached before they fire, as do
// events queued while no profile was attached after A. Stack ids belong to
// the engine, so a swapped-in profile can record them.
func TestProfileSwapMidRun(t *testing.T) {
	e := &Engine{}
	a := NewProfile()
	e.SetProfile(a)
	r := e.EnterRoot("req")
	e.Schedule(1, func() {})
	f := e.Enter("deep")
	e.Schedule(2, func() {})
	f.Exit()
	r.Exit()
	e.Schedule(3, func() {}) // unattributed
	e.Step()                 // req fires into a

	b := NewProfile()
	e.SetProfile(b)
	r = e.EnterRoot("late")
	e.Schedule(3, func() {})
	r.Exit()
	e.Run()

	if got, want := folded(t, a), "req 1000000\n"; got != want {
		t.Fatalf("profile a:\n%s\nwant:\n%s", got, want)
	}
	want := "(unattributed) 1000000\nlate 1000000\nreq;deep 1000000\n"
	if got := folded(t, b); got != want {
		t.Fatalf("profile b:\n%s\nwant:\n%s", got, want)
	}

	// Detach with a labeled event still queued; it keeps its stack and is
	// recorded under it once a profile is attached again.
	r = e.EnterRoot("held")
	e.Schedule(1, func() {})
	r.Exit()
	e.SetProfile(nil)
	e.Schedule(1, func() {}) // scheduled detached: unattributed
	c := NewProfile()
	e.SetProfile(c)
	e.Run()
	if got, want := folded(t, c), "(unattributed) 0\nheld 1000000\n"; got != want {
		t.Fatalf("profile c:\n%s\nwant:\n%s", got, want)
	}
}

// TestProfileSharedAcrossEngines: one profile attached to two engines in
// turn keeps every stack's weights, though each engine numbers its stacks
// differently.
func TestProfileSharedAcrossEngines(t *testing.T) {
	p := NewProfile()
	recordStacks(p, []string{"a;b", "c"}, []float64{1, 2})
	recordStacks(p, []string{"c", "d", "a;b"}, []float64{4, 8, 16})
	want := "a;b 17000000\nc 6000000\nd 8000000\n"
	if got := folded(t, p); got != want {
		t.Fatalf("folded:\n%s\nwant:\n%s", got, want)
	}
	if p.Events() != 5 {
		t.Fatalf("Events = %d, want 5", p.Events())
	}
}

// TestProfileFrameNameValidation: a frame name that would corrupt the
// folded format — empty, or holding ';', a space or a newline — panics
// naming the frame, whether pushed by Enter, EnterRoot or a station.
// Unprofiled engines never look at frame names.
func TestProfileFrameNameValidation(t *testing.T) {
	for _, name := range []string{"", "a;b", "a b", "a\nb"} {
		cases := []struct {
			how, frame string
			push       func(e *Engine)
		}{
			{"Enter", name, func(e *Engine) { e.Enter("ok"); e.Enter(name) }},
			{"EnterRoot", name, func(e *Engine) { e.EnterRoot(name) }},
		}
		if name != "" { // an empty station name still yields the frame "/svc"
			cases = append(cases, struct {
				how, frame string
				push       func(e *Engine)
			}{"Station", name + "/svc", func(e *Engine) { NewStation(e, name, 1, 1).Submit(1, nil) }})
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%q", c.how, name), func(t *testing.T) {
				e := &Engine{}
				c.push(e) // profiling off: accepted
				e.SetProfile(NewProfile())
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, fmt.Sprintf("%q", c.frame)) {
						t.Fatalf("panic %q does not name frame %q", msg, c.frame)
					}
				}()
				c.push(e)
				t.Fatalf("frame %q accepted", c.frame)
			})
		}
	}
}

// TestProfileFoldedFormat: one "stack weight" line per stack, integer
// microsecond weights, lexicographic order, no spaces inside frames.
func TestProfileFoldedFormat(t *testing.T) {
	p := NewProfile()
	recordStacks(p, []string{"b;y", "a;x", ""}, []float64{0.25, 1.5, 0.000001})
	want := "(unattributed) 1\na;x 1500000\nb;y 250000\n"
	if got := folded(t, p); got != want {
		t.Fatalf("folded output:\n%q\nwant:\n%q", got, want)
	}
}

// TestProfileRollup: header totals, descending sim-time order, and the
// overflow aggregate line.
func TestProfileRollup(t *testing.T) {
	p := NewProfile()
	var stacks []string
	var dts []float64
	for i := 0; i < rollupRows+5; i++ {
		stacks = append(stacks, strings.Repeat("s", i+1))
		dts = append(dts, float64(i+1))
	}
	recordStacks(p, stacks, dts)
	var sb strings.Builder
	if err := p.WriteRollup(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "more stacks") {
		t.Fatalf("rollup lacks the overflow aggregate:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + column row + rollupRows + aggregate
	if len(lines) != 2+rollupRows+1 {
		t.Fatalf("rollup has %d lines, want %d", len(lines), 2+rollupRows+1)
	}
	if !strings.HasPrefix(lines[0], "simnet event-loop profile:") {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.HasSuffix(lines[2], "  "+stacks[len(stacks)-1]) {
		t.Fatalf("first row %q is not the heaviest stack", lines[2])
	}
}

// TestProfileDetachedZeroState: detaching clears the context so a later
// re-attach does not inherit stale frames, and an unprofiled engine
// records nothing.
func TestProfileDetachedZeroState(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	e.Enter("left-open")
	e.SetProfile(nil)
	e.Schedule(1, func() {})
	e.Run()
	if !p.Empty() {
		t.Fatalf("detached engine recorded stacks:\n%s", folded(t, p))
	}
	if f := e.Enter("x"); f.ok {
		t.Fatal("Enter returned a live frame with profiling off")
	}
	q := NewProfile()
	e.SetProfile(q)
	e.Schedule(1, func() {})
	e.Run()
	if got, want := folded(t, q), unattributed+" 1000000\n"; got != want {
		t.Fatalf("re-attached profile:\n%s\nwant:\n%s", got, want)
	}
}
