package websim

import (
	"testing"

	"webharmony/internal/rng"
	"webharmony/internal/simnet"
	"webharmony/internal/tpcw"
	"webharmony/internal/webobj"
)

// TestPagePathAllocs pins the steady-state allocation cost of one complete
// page request (System.Request through finishPage, across all three
// tiers). With the pooled pageReq/objReq/call/query state machines and the
// engine's event free list, a warmed system serves pages from recycled
// records: the only remaining allocations are amortized container growth
// and cache-admission bookkeeping on the occasional miss, so the per-page
// average must stay a small constant (DESIGN.md §7).
func TestPagePathAllocs(t *testing.T) {
	sys := New(Options{
		ProxyNodes: 1,
		AppNodes:   1,
		DBNodes:    1,
		Scale:      200,
		Seed:       11,
	})
	gen := tpcw.NewPageGen(sys.Catalog, rng.New(99))
	var buf []webobj.Object
	done := func(bool) {}
	next := 0
	serve := func() {
		pr := gen.PageBuf(tpcw.Interaction(next%tpcw.NumInteractions), 0, buf)
		next++
		buf = pr.Images
		sys.Request(pr, done)
		sys.Eng.Run()
	}
	// Warm up: fill the proxy cache, grow the free lists, the event heap
	// and the pool wait queues to their steady-state capacities.
	for i := 0; i < 3000; i++ {
		serve()
	}
	const ceiling = 2.0
	if avg := testing.AllocsPerRun(3000, serve); avg > ceiling {
		t.Errorf("page path: %.3f allocs/page, ceiling %.1f", avg, ceiling)
	}
	if sys.livePages != 0 || sys.liveObjs != 0 {
		t.Errorf("leaked pooled records: %d pages, %d objects still live after drain",
			sys.livePages, sys.liveObjs)
	}
}

// TestPagePathAllocsProfiled mirrors TestPagePathAllocs with the event-loop
// profiler attached (as in a -simprofile run). Attribution contexts are
// interned stack ids, so once every stack the page path reaches has been
// seen, pushing frames and recording dispatches must allocate nothing: the
// profiled path holds the same ceiling as the plain one.
func TestPagePathAllocsProfiled(t *testing.T) {
	sys := New(Options{
		ProxyNodes: 1,
		AppNodes:   1,
		DBNodes:    1,
		Scale:      200,
		Seed:       11,
	})
	prof := simnet.NewProfile()
	sys.Eng.SetProfile(prof)
	gen := tpcw.NewPageGen(sys.Catalog, rng.New(99))
	var buf []webobj.Object
	done := func(bool) {}
	next := 0
	serve := func() {
		pr := gen.PageBuf(tpcw.Interaction(next%tpcw.NumInteractions), 0, buf)
		next++
		buf = pr.Images
		sys.Request(pr, done)
		sys.Eng.Run()
	}
	for i := 0; i < 3000; i++ {
		serve()
	}
	const ceiling = 2.0
	if avg := testing.AllocsPerRun(3000, serve); avg > ceiling {
		t.Errorf("profiled page path: %.3f allocs/page, ceiling %.1f", avg, ceiling)
	}
	if sys.livePages != 0 || sys.liveObjs != 0 {
		t.Errorf("leaked pooled records: %d pages, %d objects still live after drain",
			sys.livePages, sys.liveObjs)
	}
	if prof.Events() == 0 {
		t.Error("profile recorded no dispatches")
	}
}
