package cluster

import (
	"reflect"
	"testing"

	"millipage/internal/sim"
)

// stampResender records when it was asked to re-send, and by whom.
type stampResender struct {
	eng   *sim.Engine
	at    []sim.Duration
	procs int // calls that came with a process (crash recovery)
}

func (r *stampResender) Resend(p *sim.Proc) {
	r.at = append(r.at, sim.Duration(r.eng.Now()))
	if p != nil {
		r.procs++
	}
}

// TestBlockRetryBackoffRecoveryAndStop: a thread parked in a Block with a
// Retry has its request re-sent after base, 2·base, 4·base ... capped at retryMax;
// crash recovery re-sends it at once and leaves the timer alone; both
// stop when the reply sets the event, and the entry goes back to the
// freelist once its last timer has fired stale — so the next fault's
// retry allocates nothing.
func TestBlockRetryBackoffRecoveryAndStop(t *testing.T) {
	rt := newTestRuntime(1, 1)
	h := rt.Host(0)
	rs := &stampResender{eng: rt.Eng}
	const base = 10 * sim.Millisecond
	ms := func(n int) sim.Duration { return sim.Duration(n) * sim.Millisecond }
	var fw *Wait
	rt.Eng.At(sim.Time(ms(100)), func() {
		rt.Eng.SpawnDaemon("recover", func(p *sim.Proc) { h.resendInflight(p) })
	})
	rt.Eng.At(sim.Time(ms(600)), func() { fw.Ev.Set() })
	var again float64
	err := rt.Run(func(ct *Thread) func() {
		return func() {
			fw = ct.WaitSlot()
			ct.Block(Blocking{For: "reply", FW: fw, Retry: rs, RetryBase: base})
			if len(h.inflight) != 0 {
				t.Errorf("%d entries still registered after the thread woke", len(h.inflight))
			}
			ct.Compute(ms(400)) // the pending 710 ms timer fires stale in here
			again = testing.AllocsPerRun(10, func() {
				fw := ct.WaitSlot()
				rt.Eng.After(base/2, fw.Ev.Set)
				ct.Block(Blocking{For: "reply", FW: fw, Retry: rs, RetryBase: base})
				ct.Compute(base)
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []sim.Duration{ms(10), ms(30), ms(70), ms(100), ms(150), ms(310), ms(510)}
	if !reflect.DeepEqual(rs.at, want) {
		t.Fatalf("re-sends at %v, want %v", rs.at, want)
	}
	if rs.procs != 1 {
		t.Fatalf("%d re-sends ran in a process, want only crash recovery's", rs.procs)
	}
	if again > 1 { // the closure handed to After
		t.Fatalf("a warmed-up Block with a Retry allocates %.0f objects, want only the test's own closure", again)
	}
}
