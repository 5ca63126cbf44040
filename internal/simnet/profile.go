package simnet

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file is the trace-driven event-loop profiler: it answers "where does
// simulated time go?" by attributing every event dispatch to a folded stack
// of attribution frames (page class → tier → station → event kind) and
// accumulating two weights per stack — the number of dispatches and the
// simulated time the clock advanced to reach the event.
//
// Attribution is threaded, not sampled. The stack is one half of the
// engine's attribution context (eventCtx, engine.go; the other half is the
// request's span buffer): events scheduled during dispatch inherit it,
// instrumented call sites push frames with Enter/EnterRoot, and the
// queueing primitives carry the submitter's context across their queues,
// both halves as one value. Everything is derived from the deterministic event
// sequence, so a profile is byte-identical across runs and worker counts —
// unlike wall-clock pprof, which the repo also ships (harmonyd -debug-addr)
// but which cannot be compared across machines or checked into a test.
//
// A stack is a stackID: an index into the engine's frame trie, so pushing
// a frame is a lookup among one node's children and recording a dispatch
// bumps two weights in a slice. Folded "frame;frame;frame" strings are
// built only when a profile is read (DESIGN.md §7).
//
// With no profile attached (SetProfile never called) the whole layer is a
// nil check per event and per instrumented call site.

// maxFrames bounds the folded-stack depth so a mislabeled recursive chain
// cannot grow contexts without bound; deeper frames are dropped (the stack
// keeps its prefix). The instrumented pipeline needs ~12 frames.
const maxFrames = 24

// unattributed is the stack that owns dispatches outside any frame.
const unattributed = "(unattributed)"

// stackID names an interned stack: an index into a stackTrie. The zero
// value is the empty stack, which folds to unattributed.
type stackID int32

// stackNode is one interned stack: its last frame's name and the stack
// below it. Nodes are never removed or renamed, so an id stays valid, and
// keeps its meaning, for the life of the trie.
type stackNode struct {
	parent   stackID
	depth    int32 // frames in the stack; 0 for the empty stack
	name     string
	children []stackID
}

// stackTrie interns stacks. Each Engine owns one, so the ids its events,
// queued jobs and pool waiters carry stay meaningful whichever profile is
// attached when they are dispatched; a Profile records weights against the
// trie it is bound to.
type stackTrie struct {
	nodes []stackNode // nodes[0] is the empty stack; allocated on first push
}

// push returns the stack id extended by one frame. At maxFrames the stack
// does not grow. The frame name is validated only when a new node is
// created, so a lookup of a known stack costs a scan of one node's
// children and nothing more.
func (t *stackTrie) push(id stackID, name string) stackID {
	if t.nodes == nil {
		t.nodes = make([]stackNode, 1, 64)
	}
	n := &t.nodes[id]
	if n.depth >= maxFrames {
		return id
	}
	for _, c := range n.children {
		if t.nodes[c].name == name {
			return c
		}
	}
	checkFrameName(name)
	c := stackID(len(t.nodes))
	n.children = append(n.children, c)
	t.nodes = append(t.nodes, stackNode{parent: id, depth: n.depth + 1, name: name})
	return c
}

// fold returns the folded "frame;frame;frame" string of a stack.
func (t *stackTrie) fold(id stackID) string {
	if id == 0 {
		return unattributed
	}
	names := make([]string, t.nodes[id].depth)
	for i := len(names) - 1; i >= 0; i-- {
		names[i] = t.nodes[id].name
		id = t.nodes[id].parent
	}
	return strings.Join(names, ";")
}

// checkFrameName panics on a frame name that would corrupt the folded
// format: ';' separates frames, a space separates the stack from its
// weight, a newline separates stacks, and an empty name would fold to an
// empty frame.
func checkFrameName(name string) {
	if name == "" || strings.ContainsAny(name, "; \n") {
		panic(fmt.Sprintf("simnet: invalid profile frame name %q: frames must be non-empty and contain no ';', space or newline", name))
	}
}

// SetProfile attaches a profile to the engine; every subsequent dispatch is
// recorded. A nil profile detaches and restores the zero-overhead path.
// Attaching a profile never changes what the simulation computes: stack ids
// ride along with events but neither reorder them nor touch any RNG.
func (e *Engine) SetProfile(p *Profile) {
	e.prof = p
	if p == nil {
		e.ctx.stack = 0
	}
}

// Frame is a token returned by Enter/EnterRoot and restored by Exit; the
// zero value (returned when profiling is off) makes Exit a no-op.
type Frame struct {
	eng  *Engine
	prev stackID
	ok   bool
}

// Enter pushes an attribution frame: events scheduled until the matching
// Exit carry the extended stack. No-op (and allocation-free) when no
// profile is attached. Panics if name is empty or contains ';', a space or
// a newline.
func (e *Engine) Enter(name string) Frame {
	if e.prof == nil {
		return Frame{}
	}
	f := Frame{eng: e, prev: e.ctx.stack, ok: true}
	e.ctx.stack = e.stacks.push(e.ctx.stack, name)
	return f
}

// EnterRoot resets the attribution stack to a single frame — the start of
// a new logical unit of work (a page request, a browser think period) —
// so stacks cannot grow across request boundaries.
func (e *Engine) EnterRoot(name string) Frame {
	if e.prof == nil {
		return Frame{}
	}
	f := Frame{eng: e, prev: e.ctx.stack, ok: true}
	e.ctx.stack = e.stacks.push(0, name)
	return f
}

// Exit restores the attribution stack saved by Enter/EnterRoot.
func (f Frame) Exit() {
	if f.ok {
		f.eng.ctx.stack = f.prev
	}
}

// stackWeight accumulates one stack's two weights.
type stackWeight struct {
	events  uint64
	simTime float64
}

// Profile accumulates sim-time-weighted stacks from one engine (or, after
// Merge, several). Not safe for concurrent use; in parallel runs each lab
// owns a profile and the collector merges them after the join.
type Profile struct {
	trie *stackTrie    // the id space w indexes; nil until first use
	w    []stackWeight // per-stack weights, indexed by stackID
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{} }

// record attributes one dispatch of an event carrying stack id of trie t:
// dt simulated seconds of clock advance.
func (p *Profile) record(t *stackTrie, id stackID, dt float64) {
	if p.trie != t {
		p.rebind(t)
	}
	p.add(id, stackWeight{events: 1, simTime: dt})
}

// grow extends the weight slice to cover id and every node the bound trie
// already holds, so a run grows it a handful of times, not per new stack.
func (p *Profile) grow(id int) {
	n := max(id+1, len(p.trie.nodes))
	if n > cap(p.w) {
		w := make([]stackWeight, n, 2*n)
		copy(w, p.w)
		p.w = w
	}
	p.w = p.w[:n]
}

// rebind moves the profile onto trie t, carrying over what it has
// recorded so far. A profile is bound to the trie of the first engine that
// records into it; rebinding happens only when one profile is attached to
// a second engine, and it keeps every stack's weights exact.
func (p *Profile) rebind(t *stackTrie) {
	old, w := p.trie, p.w
	p.trie, p.w = t, nil
	if old != nil {
		p.absorb(old, w)
	}
}

// absorb adds weights w, indexed by the ids of trie t, into p. Each of t's
// nodes is found or created in p's trie by name under its parent's image;
// a parent's id is always below its children's, so one pass in id order
// maps every node, and no folded string is built.
func (p *Profile) absorb(t *stackTrie, w []stackWeight) {
	ids := make([]stackID, len(w))
	for id := 1; id < len(w); id++ {
		n := &t.nodes[id]
		ids[id] = p.trie.push(ids[n.parent], n.name)
	}
	for id, x := range w {
		if x.events > 0 {
			p.add(ids[id], x)
		}
	}
}

// add accumulates w into stack id of the bound trie.
func (p *Profile) add(id stackID, w stackWeight) {
	if int(id) >= len(p.w) {
		p.grow(int(id))
	}
	p.w[id].events += w.events
	p.w[id].simTime += w.simTime
}

// foldedStack is one folded stack string and its weights.
type foldedStack struct {
	stack string
	w     stackWeight
}

// stacks returns every recorded stack folded to its string, in
// lexicographic order. Distinct ids that fold to the same string (a root
// frame named like the unattributed sentinel) are merged.
func (p *Profile) stacks() []foldedStack {
	var out []foldedStack
	for id, w := range p.w {
		if w.events > 0 {
			out = append(out, foldedStack{stack: p.trie.fold(stackID(id)), w: w})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].stack < out[j].stack })
	merged := out[:0]
	for _, s := range out {
		if n := len(merged); n > 0 && merged[n-1].stack == s.stack {
			merged[n-1].w.events += s.w.events
			merged[n-1].w.simTime += s.w.simTime
			continue
		}
		merged = append(merged, s)
	}
	return merged
}

// Merge adds every stack of o into p. Per-stack sums commute across merge
// order up to float association; callers that need byte-stable output must
// merge in a fixed order (the telemetry collector merges recorders sorted
// by (replicate, unit)).
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	if p.trie == nil {
		p.trie = &stackTrie{}
	}
	if o.trie != nil {
		p.absorb(o.trie, o.w)
	}
}

// Empty reports whether nothing has been recorded. A nil profile is empty.
func (p *Profile) Empty() bool { return p == nil || p.Events() == 0 }

// Events returns the total number of recorded dispatches.
func (p *Profile) Events() uint64 {
	var n uint64
	for _, w := range p.w {
		n += w.events
	}
	return n
}

// SimTime returns the total attributed simulated seconds.
func (p *Profile) SimTime() float64 {
	var t float64
	for _, w := range p.w {
		t += w.simTime
	}
	return t
}

// WriteFolded writes the profile in the folded-stack format consumed by
// flamegraph.pl and speedscope: one "frame;frame;frame weight" line per
// stack, weight in integer microseconds of simulated time, stacks in
// lexicographic order so the bytes are stable across runs and merges.
func (p *Profile) WriteFolded(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range p.stacks() {
		us := int64(s.w.simTime*1e6 + 0.5)
		if _, err := fmt.Fprintf(bw, "%s %d\n", s.stack, us); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// rollupRows bounds the stack table in WriteRollup; the remainder is
// aggregated into one line so the rollup stays readable at any scale.
const rollupRows = 40

// WriteRollup writes a human-readable rollup: totals, then the stacks
// ordered by attributed simulated time (descending; stack name breaks
// ties) with share-of-total and dispatch counts. Deterministic: both sort
// keys and all weights are exact functions of the event sequence.
func (p *Profile) WriteRollup(w io.Writer) error {
	rows := p.stacks()
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].w.simTime != rows[j].w.simTime {
			return rows[i].w.simTime > rows[j].w.simTime
		}
		return rows[i].stack < rows[j].stack
	})
	total := p.SimTime()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "simnet event-loop profile: %d dispatches, %.3fs simulated, %d stacks\n",
		p.Events(), total, len(rows))
	fmt.Fprintf(bw, "%14s %7s %12s  %s\n", "sim-time", "share", "dispatches", "stack")
	shown := rows
	if len(shown) > rollupRows {
		shown = shown[:rollupRows]
	}
	pct := func(t float64) float64 {
		if total <= 0 {
			return 0
		}
		return 100 * t / total
	}
	for _, r := range shown {
		fmt.Fprintf(bw, "%13.3fs %6.2f%% %12d  %s\n",
			r.w.simTime, pct(r.w.simTime), r.w.events, r.stack)
	}
	if rest := rows[len(shown):]; len(rest) > 0 {
		var t float64
		var n uint64
		for _, r := range rest {
			t += r.w.simTime
			n += r.w.events
		}
		fmt.Fprintf(bw, "%13.3fs %6.2f%% %12d  … %d more stacks\n", t, pct(t), n, len(rest))
	}
	return bw.Flush()
}
