package simnet

import "testing"

// TestStationAllocs pins the hot submit/step path of the event loop at
// its measured cost of zero allocations per job: completions reuse pooled
// events and the station's svcRecord free list supplies the in-service
// completion state, so nothing is allocated after warm-up. This is the
// loop BenchmarkStationThroughput times — the guard turns the allocation
// half of that win into a regression test that fails fast instead of a
// benchmark number someone has to notice drifting. The attributed case
// runs the same loop with a profile and a span attached and drives both
// queues, so carrying the submitter's context through a queued job and a
// queued pool grant is held to the same ceiling.
func TestStationAllocs(t *testing.T) {
	cases := []struct {
		name string
		op   func(e *Engine) func() // builds one job's work on e
	}{
		{"plain", func(e *Engine) func() {
			st := NewStation(e, "cpu", 2, 1)
			return func() {
				st.Submit(0.001, nil)
				e.Step()
			}
		}},
		{"attributed", func(e *Engine) func() {
			e.SetProfile(NewProfile())
			var b SpanBuf
			e.SetSpan(&b)
			e.EnterRoot("req")
			st := NewStation(e, "cpu", 1, 1)
			pool := NewTokenPool(e, "threads", 1, -1)
			nop := func() {}
			return func() {
				b.Begin(e.NowTicks())
				st.Submit(0.001, nil) // in service
				st.Submit(0.001, nil) // queued behind it
				pool.Acquire(nop, nil)
				pool.Acquire(nop, nil) // queued
				pool.Release()         // grants the waiter
				pool.Release()
				e.Step()
				e.Step()
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e Engine
			op := tc.op(&e)
			for i := 0; i < 1000; i++ {
				op()
			}
			if avg := testing.AllocsPerRun(5000, op); avg > 0.5 {
				t.Errorf("%s submit+step: %.2f allocs, want 0 (ceiling 0.5)", tc.name, avg)
			}
		})
	}
}
