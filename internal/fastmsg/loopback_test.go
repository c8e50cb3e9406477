package fastmsg

import (
	"testing"

	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// A host's link to itself is not a wire. A self-addressed message reaches
// its handler at the send instant plus the send and receive CPU, idle
// host or busy; no fault plan drops or duplicates it; and a crash that
// wipes it from the receive queue re-delivers it exactly once.

// selfSends has host 0 of a two-host network send n self-addressed
// messages, payloads 0..n-1, each once the previous one is long served,
// with an application thread busy throughout if busy is set, and returns
// each handler's lateness past its send plus SendCPU and RecvCPU.
func selfSends(t *testing.T, nw *Network, n int, busy bool) []sim.Duration {
	t.Helper()
	eng, ep, pr := nw.eng, nw.Endpoint(0), nw.params
	var sentAt []sim.Time
	var late []sim.Duration
	ep.SetHandler(func(p *sim.Proc, m *Message) {
		k := m.Payload.(int)
		if k != len(late) {
			t.Fatalf("handler got payload %d, want %d: a self-send delivered twice or out of order", k, len(late))
		}
		late = append(late, p.Now().Sub(sentAt[k])-pr.SendCPU(m.Size)-pr.RecvCPU(m.Size))
	})
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) { t.Errorf("host 1 got %v", m.Payload) })
	eng.Spawn("self", func(p *sim.Proc) {
		if busy {
			ep.SetBusy(+1) // a computing thread: a wire arrival would wait for the sweeper
		}
		for k := 0; k < n; k++ {
			p.Sleep(100 * sim.Microsecond)
			sentAt = append(sentAt, p.Now())
			m := ep.AllocMessage()
			m.Size, m.Payload = 32+k%7*100, k
			ep.Send(p, 0, m)
		}
		p.Sleep(10 * sim.Millisecond)
		if busy {
			ep.SetBusy(-1)
		}
	})
	mustRun(t, eng)
	if len(late) != n {
		t.Fatalf("%d of %d self-sends delivered", len(late), n)
	}
	return late
}

// TestSelfSendLoopsBack: a self-addressed message pays SendCPU and RecvCPU
// and nothing else — no wire latency, no poll on an idle host, no sweeper
// tick on a busy one — and never counts as wire traffic.
func TestSelfSendLoopsBack(t *testing.T) {
	for _, busy := range []bool{false, true} {
		nw := New(sim.NewEngine(1), 2, DefaultParams())
		for k, d := range selfSends(t, nw, 20, busy) {
			if d != 0 {
				t.Fatalf("busy %v: self-send %d served %v past its send and receive CPU", busy, k, d)
			}
		}
		st := nw.Endpoint(0).Stats()
		if st.Looped != 20 || st.Sent != 0 || st.BytesSent != 0 || st.Received != 0 || st.ServiceDelay != 0 {
			t.Fatalf("busy %v: stats %+v, want 20 looped and no wire traffic", busy, st)
		}
	}
}

// TestSelfSendUnderDropHeavy: under the drop-heavy plan's rates a
// self-addressed message is still delivered exactly once, in order, at
// its send and receive CPU, with no retransmission, and its session's
// send log drains: the completion acks it with no wire in between.
func TestSelfSendUnderDropHeavy(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		nw := New(sim.NewEngine(seed), 2, DefaultParams())
		inj, err := faultnet.NewInjector(faultnet.Plan{Drop: 0.25, Dup: 0.15}, 2, seed)
		must(t, err)
		nw.InstallFaults(inj)
		for k, d := range selfSends(t, nw, 200, seed%2 == 0) {
			if d != 0 {
				t.Fatalf("seed %d: self-send %d served %v past its send and receive CPU", seed, k, d)
			}
		}
		st := nw.Endpoint(0).Stats()
		if st.Looped != 200 || st.Retransmits != 0 || st.DupsDropped != 0 || st.Sent != 0 {
			t.Fatalf("seed %d: stats %+v, want 200 looped, no retransmission and no duplicate", seed, st)
		}
		if ss := &nw.rel.hosts[0].send[0]; len(ss.outstanding()) != 0 || ss.nextSeq != 201 {
			t.Fatalf("seed %d: self link's send log holds %d, next seq %d; want 0 and 201", seed, len(ss.outstanding()), ss.nextSeq)
		}
	}
}

// TestSelfSendSurvivesCrash: host 0 crashes while its first self-addressed
// message is in service and its second waits in the receive queue. The
// crash wipes the queue; the restart flush re-sends both from the send
// log, and the receive session drops the first, which completed, and
// admits the second: each handler runs exactly once.
func TestSelfSendSurvivesCrash(t *testing.T) {
	pr := DefaultParams()
	crashAt, restartAt := sim.Time(2*sim.Millisecond), sim.Time(5*sim.Millisecond)
	eng := sim.NewEngine(1)
	nw := New(eng, 2, pr)
	inj, err := faultnet.NewInjector(faultnet.Plan{Crashes: []faultnet.Crash{{Host: 0, At: crashAt, RestartAt: restartAt}}}, 2, 1)
	must(t, err)
	nw.InstallFaults(inj)
	ep := nw.Endpoint(0)
	var got []int
	var servedAt []sim.Time
	ep.SetHandler(func(p *sim.Proc, m *Message) {
		got, servedAt = append(got, m.Payload.(int)), append(servedAt, p.Now())
		if m.Payload.(int) == 0 {
			p.Sleep(2 * sim.Millisecond) // in service across the crash
		}
	})
	eng.Spawn("self", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		for k := 0; k < 2; k++ {
			m := ep.AllocMessage()
			m.Size, m.Payload = 32, k
			ep.Send(p, 0, m)
		}
		p.Sleep(20 * sim.Millisecond)
	})
	mustRun(t, eng)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("handlers ran for %v, want [0 1]", got)
	}
	if want := restartAt.Add(pr.RecvCPU(32)); servedAt[1] != want {
		t.Fatalf("the wiped message was served at %v, want the restart flush's %v", servedAt[1], want)
	}
	st := ep.Stats()
	if st.Retransmits != 2 || st.DupsDropped != 1 || st.Sent != 0 {
		t.Fatalf("stats %+v, want 2 re-sent at the restart, 1 dropped as completed, no wire traffic", st)
	}
	if len(nw.rel.hosts[0].send[0].outstanding()) != 0 {
		t.Fatal("the self link's send log did not drain")
	}
}
