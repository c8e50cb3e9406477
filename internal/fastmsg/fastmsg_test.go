package fastmsg

import (
	"testing"

	"millipage/internal/sim"
)

// must fails the test if err is not nil.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// mustRun runs eng and fails the test if Run does.
func mustRun(t testing.TB, eng *sim.Engine) {
	t.Helper()
	must(t, eng.Run())
}

// newPair builds a 2-endpoint network with handler plumbing for tests.
func newPair(t *testing.T, params Params) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(42)
	return eng, New(eng, 2, params)
}

// send sends to endpoint `to` a fresh envelope from ep carrying payload,
// of size bytes.
func send(p *sim.Proc, ep *Endpoint, to, size int, payload any) {
	m := ep.AllocMessage()
	m.Size, m.Payload = size, payload
	ep.Send(p, to, m)
}

func TestOneWayCostMatchesTable1(t *testing.T) {
	// The paper's Table 1: header (32 B) 12 µs, 0.5 KB 22 µs, 1 KB 34 µs,
	// 4 KB 90 µs. The calibrated model must land within 10% of each.
	pr := DefaultParams()
	cases := []struct {
		size int
		want float64 // µs
	}{
		{32, 12}, {512, 22}, {1024, 34}, {4096, 90},
	}
	for _, c := range cases {
		got := pr.OneWay(c.size).Microseconds()
		if got < c.want*0.90 || got > c.want*1.10 {
			t.Errorf("OneWay(%d) = %.1fus, want %.1fus +-10%%", c.size, got, c.want)
		}
	}
}

func TestDeliveryToIdleHost(t *testing.T) {
	eng, nw := newPair(t, DefaultParams())
	var gotAt sim.Time
	var got Message // a copy: the envelope is recycled once the handler returns
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {
		got = *m
		gotAt = p.Now()
	})
	nw.Endpoint(0).SetHandler(func(p *sim.Proc, m *Message) {})
	eng.Spawn("sender", func(p *sim.Proc) {
		send(p, nw.Endpoint(0), 1, 32, "ping")
		p.Sleep(sim.Millisecond) // keep the run alive through delivery
	})
	mustRun(t, eng)
	if gotAt == 0 {
		t.Fatal("message not delivered")
	}
	if got.Payload != "ping" || got.From != 0 || got.To != 1 {
		t.Fatalf("bad message: %+v", got)
	}
	want := DefaultParams().OneWay(32) + DefaultParams().PollIdle
	d := sim.Duration(gotAt)
	if d < want-sim.Microsecond || d > want+2*sim.Microsecond {
		t.Fatalf("handled at %v, want about %v", d, want)
	}
}

func TestFIFOPerDestination(t *testing.T) {
	// A large message followed by a small one must not be overtaken.
	eng, nw := newPair(t, DefaultParams())
	var order []int
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {
		order = append(order, m.Payload.(int))
	})
	eng.Spawn("sender", func(p *sim.Proc) {
		ep := nw.Endpoint(0)
		// Engine-context sends (p=nil charges nothing) issued back-to-back
		// so wire latency alone would reorder them.
		send(nil, ep, 1, 65536, 1)
		send(nil, ep, 1, 8, 2)
		p.Sleep(sim.Second)
	})
	mustRun(t, eng)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

func TestBusyHostWaitsForSweeper(t *testing.T) {
	pr := DefaultParams()
	eng, nw := newPair(t, pr)
	var handledAt sim.Time
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) { handledAt = p.Now() })
	nw.Endpoint(1).SetBusy(+1) // host 1 is computing
	var sentAt sim.Time
	eng.Spawn("sender", func(p *sim.Proc) {
		sentAt = p.Now()
		send(p, nw.Endpoint(0), 1, 32, nil)
		p.Sleep(20 * sim.Millisecond)
	})
	mustRun(t, eng)
	delay := handledAt.Sub(sentAt)
	if delay < pr.SweepShortLo {
		t.Fatalf("busy-host delivery after %v, want at least a sweeper gap (>=%v)", delay, pr.SweepShortLo)
	}
}

func TestIdleTransitionFlushesPending(t *testing.T) {
	// Force a long sweeper gap, then make the host idle: the poller must
	// pick the message up in ~PollIdle rather than waiting out the tick.
	pr := DefaultParams()
	pr.SweepShortProb = 0 // every gap is long
	pr.SweepLongLo = 50 * sim.Millisecond
	pr.SweepLongHi = 60 * sim.Millisecond
	eng, nw := newPair(t, pr)
	var handledAt sim.Time
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) { handledAt = p.Now() })
	nw.Endpoint(1).SetBusy(+1)
	eng.Spawn("sender", func(p *sim.Proc) {
		send(p, nw.Endpoint(0), 1, 32, nil)
		p.Sleep(500 * sim.Microsecond)
		nw.Endpoint(1).SetBusy(-1) // app thread blocks; host 1 goes idle
		p.Sleep(5 * sim.Millisecond)
	})
	mustRun(t, eng)
	if handledAt == 0 {
		t.Fatal("message never handled")
	}
	if sim.Duration(handledAt) > 600*sim.Microsecond {
		t.Fatalf("handled at %v, want shortly after the idle transition at 500us+send", handledAt)
	}
}

func TestPerfectTimersServiceQuickly(t *testing.T) {
	pr := DefaultParams()
	pr.PerfectTimers = true
	pr.SweepShortLo = 10 * sim.Microsecond
	eng, nw := newPair(t, pr)
	var handledAt sim.Time
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) { handledAt = p.Now() })
	nw.Endpoint(1).SetBusy(+1)
	eng.Spawn("sender", func(p *sim.Proc) {
		send(p, nw.Endpoint(0), 1, 32, nil)
		p.Sleep(10 * sim.Millisecond)
	})
	mustRun(t, eng)
	if sim.Duration(handledAt) > 50*sim.Microsecond {
		t.Fatalf("perfect-timer delivery took %v, want < 50us", sim.Duration(handledAt))
	}
}

func TestHandlerCanReply(t *testing.T) {
	eng, nw := newPair(t, DefaultParams())
	done := false
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {
		send(p, nw.Endpoint(1), 0, 32, "pong")
	})
	nw.Endpoint(0).SetHandler(func(p *sim.Proc, m *Message) {
		if m.Payload == "pong" {
			done = true
		}
	})
	eng.Spawn("sender", func(p *sim.Proc) {
		send(p, nw.Endpoint(0), 1, 32, "ping")
		p.Sleep(sim.Millisecond)
	})
	mustRun(t, eng)
	if !done {
		t.Fatal("no pong")
	}
}

func TestRoundTripSmallMessageNearPaper(t *testing.T) {
	// The paper measured a 25 µs roundtrip for 200-byte messages. Our
	// model should be in the same ballpark (within 2x, it is a model).
	eng, nw := newPair(t, DefaultParams())
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {
		send(p, nw.Endpoint(1), 0, 200, nil)
	})
	var rtt sim.Duration
	done := sim.NewQueue[struct{}](eng)
	nw.Endpoint(0).SetHandler(func(p *sim.Proc, m *Message) { done.Put(struct{}{}) })
	eng.Spawn("pinger", func(p *sim.Proc) {
		start := p.Now()
		send(p, nw.Endpoint(0), 1, 200, nil)
		done.Get(p)
		rtt = p.Now().Sub(start)
	})
	mustRun(t, eng)
	us := rtt.Microseconds()
	if us < 15 || us > 50 {
		t.Fatalf("200B roundtrip = %.1fus, want 15-50us (paper: 25us)", us)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, nw := newPair(t, DefaultParams())
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {})
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			send(p, nw.Endpoint(0), 1, 100, nil)
		}
		p.Sleep(sim.Millisecond)
	})
	mustRun(t, eng)
	s0, s1 := nw.Endpoint(0).Stats(), nw.Endpoint(1).Stats()
	if s0.Sent != 5 || s0.BytesSent != 500 {
		t.Fatalf("sender stats = %+v", s0)
	}
	if s1.Received != 5 {
		t.Fatalf("receiver stats = %+v", s1)
	}
	if s1.ServiceDelay <= 0 {
		t.Fatal("no service delay recorded")
	}
}

func TestSizeDefaultsToDataLength(t *testing.T) {
	eng, nw := newPair(t, DefaultParams())
	var gotSize int
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) { gotSize = m.Size })
	eng.Spawn("s", func(p *sim.Proc) {
		m := nw.Endpoint(0).AllocMessage()
		m.Data = make([]byte, 77)
		nw.Endpoint(0).Send(p, 1, m)
		p.Sleep(sim.Millisecond)
	})
	mustRun(t, eng)
	if gotSize != 77 {
		t.Fatalf("Size = %d, want 77", gotSize)
	}
}

func TestNegativeBusyPanics(t *testing.T) {
	eng := sim.NewEngine(4)
	nw := New(eng, 1, DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("negative busy count did not panic")
		}
	}()
	nw.Endpoint(0).SetBusy(-1)
}

func TestManyMessagesKeepPerPairOrder(t *testing.T) {
	eng := sim.NewEngine(9)
	nw := New(eng, 3, DefaultParams())
	var got [3][]int
	for i := 0; i < 3; i++ {
		i := i
		nw.Endpoint(i).SetHandler(func(p *sim.Proc, m *Message) {
			got[i] = append(got[i], m.Payload.(int))
		})
	}
	eng.Spawn("sender", func(p *sim.Proc) {
		for k := 0; k < 30; k++ {
			// Alternate sizes so naive latency would reorder.
			size := 32
			if k%2 == 0 {
				size = 8192
			}
			send(p, nw.Endpoint(0), 1+k%2, size, k)
		}
		p.Sleep(20 * sim.Millisecond)
	})
	mustRun(t, eng)
	for dst := 1; dst <= 2; dst++ {
		prev := -1
		for _, v := range got[dst] {
			if v < prev {
				t.Fatalf("dst %d received out of order: %v", dst, got[dst])
			}
			prev = v
		}
		if len(got[dst]) != 15 {
			t.Fatalf("dst %d received %d messages, want 15", dst, len(got[dst]))
		}
	}
}

func TestServiceDelayStatsAccumulate(t *testing.T) {
	pr := DefaultParams()
	eng := sim.NewEngine(3)
	nw := New(eng, 2, pr)
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {})
	nw.Endpoint(1).SetBusy(+1) // sweeper-bound deliveries
	eng.Spawn("s", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			send(p, nw.Endpoint(0), 1, 32, nil)
			p.Sleep(sim.Millisecond)
		}
		p.Sleep(10 * sim.Millisecond)
	})
	mustRun(t, eng)
	s := nw.Endpoint(1).Stats()
	if s.Received != 20 {
		t.Fatalf("received = %d", s.Received)
	}
	if avg := s.ServiceDelay / sim.Duration(s.Received); avg < pr.SweepShortLo/2 {
		t.Fatalf("avg service delay = %v, implausibly small for a busy host", avg)
	}
}
