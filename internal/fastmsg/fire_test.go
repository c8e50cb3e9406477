package fastmsg

import (
	"fmt"
	"testing"

	"millipage/internal/sim"
)

// TestFireRemovesEntryOutOfArrivalOrder covers the pending-list leak:
// fire used to compact only the already-fired *prefix* of pending, so an
// entry fired ahead of an earlier arrival (which happens when a busy/idle
// transition re-times part of the list) stayed in pending — re-walked by
// every idle flush — until the whole prefix ahead of it cleared.
func TestFireRemovesEntryOutOfArrivalOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, DefaultParams())
	ep := nw.Endpoint(1)

	a := &pendingMsg{m: ep.AllocMessage(), arrived: eng.Now()}
	b := &pendingMsg{m: ep.AllocMessage(), arrived: eng.Now()}
	c := &pendingMsg{m: ep.AllocMessage(), arrived: eng.Now()}
	ep.pending = []*pendingMsg{a, b, c}

	ep.fire(b) // out of arrival order: a has not fired yet
	if len(ep.pending) != 2 || ep.pending[0] != a || ep.pending[1] != c {
		t.Fatalf("fired entry retained: pending has %d entries", len(ep.pending))
	}
	ep.fire(b) // double fire must be a no-op
	if len(ep.pending) != 2 || ep.stats.Received != 1 {
		t.Fatalf("double fire not idempotent: %d pending, %d received",
			len(ep.pending), ep.stats.Received)
	}
	ep.fire(c)
	ep.fire(a)
	if len(ep.pending) != 0 {
		t.Fatalf("pending not drained: %d entries left", len(ep.pending))
	}
	if ep.stats.Received != 3 {
		t.Fatalf("received = %d, want 3", ep.stats.Received)
	}
}

// TestPerSenderFIFOAcrossBusyTransitions drives two senders at a
// destination that oscillates between busy and idle — the pattern that
// produces out-of-arrival-order fires — and checks that per-sender FIFO
// holds, nothing is lost or duplicated, and the pending list drains.
func TestPerSenderFIFOAcrossBusyTransitions(t *testing.T) {
	const perSender = 12
	eng := sim.NewEngine(9)
	nw := New(eng, 3, DefaultParams())
	dst := nw.Endpoint(2)
	var got []int
	dst.SetHandler(func(p *sim.Proc, m *Message) {
		got = append(got, m.Payload.(int))
	})

	sender := func(id int) func(*sim.Proc) {
		return func(p *sim.Proc) {
			for i := 0; i < perSender; i++ {
				send(p, nw.Endpoint(id), 2, 32, i*2+id)
				p.Sleep(50 * sim.Microsecond)
			}
		}
	}
	eng.Spawn("sender-0", sender(0))
	eng.Spawn("sender-1", sender(1))
	eng.Spawn("toggler", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			dst.SetBusy(+1)
			p.Sleep(150 * sim.Microsecond)
			dst.SetBusy(-1)
			p.Sleep(60 * sim.Microsecond)
		}
		p.Sleep(10 * sim.Millisecond) // let the sweeper-delayed tail drain
	})
	mustRun(t, eng)

	if len(got) != 2*perSender {
		t.Fatalf("delivered %d messages, want %d", len(got), 2*perSender)
	}
	last := map[int]int{0: -1, 1: -1}
	for _, v := range got {
		id, seq := v%2, v/2
		if seq != last[id]+1 {
			t.Fatalf("sender %d delivered out of order: seq %d after %d", id, seq, last[id])
		}
		last[id] = seq
	}
	if n := len(dst.pending); n != 0 {
		t.Fatalf("pending list not drained: %d entries", n)
	}
}

// TestBusyArrivalsShareOneSweepEvent: messages reaching a busy host before
// its sweeper's next tick wait for that tick on one calendar event, not
// one apiece, and the tick hands them to the service thread together, in
// arrival order.
func TestBusyArrivalsShareOneSweepEvent(t *testing.T) {
	eng := sim.NewEngine(3)
	nw := New(eng, 2, DefaultParams())
	ep := nw.Endpoint(1)
	var got []int
	ep.SetHandler(func(p *sim.Proc, m *Message) { got = append(got, m.Payload.(int)) })
	ep.SetBusy(+1)
	base := eng.Counters().MaxPending // the two service threads' first resumes
	for i := 0; i < 3; i++ {
		m := nw.Endpoint(0).AllocMessage()
		m.From, m.To, m.Size, m.Payload = 0, 1, 32, i
		nw.arriveAny(m)
	}
	if peak := eng.Counters().MaxPending; peak != base+1 {
		t.Fatalf("three busy arrivals left %d events pending, want one sweep event", peak-base)
	}
	eng.Spawn("clock", func(p *sim.Proc) { p.Sleep(5 * sim.Millisecond) })
	mustRun(t, eng)
	if fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("delivered %v, want [0 1 2]", got)
	}
	if st := ep.Stats(); st.Received != 3 || st.ServiceDelay != 3*sim.Duration(ep.sweepTick) {
		t.Fatalf("received %d with %v of service delay, want 3 handed over at the tick %v", st.Received, st.ServiceDelay, ep.sweepTick)
	}
}
