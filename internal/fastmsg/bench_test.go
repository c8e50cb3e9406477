package fastmsg

import (
	"testing"

	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// BenchmarkMsgHopPooled measures the full one-hop message path — send,
// wire, arrival scheduling, poller fire, service-thread handoff, handler
// — with pool-allocated envelopes, as the DSM layer sends. The whole
// path is required to be allocation-free in steady state: envelopes,
// pending records and calendar events are all recycled, and the FIFO
// queues never shed capacity.
func BenchmarkMsgHopPooled(b *testing.B) { benchPooledHop(b, false) }

// BenchmarkMsgHopArmed is the same hop with the reliability layer armed
// but no fault ever firing (armFarPartition), so every frame also pays
// for sequence numbers, cumulative acks and retransmit-timer bookkeeping.
func BenchmarkMsgHopArmed(b *testing.B) { benchPooledHop(b, true) }

// armFarPartition installs a fault plan whose only entry is a partition
// window in the far future: Enabled() holds, so the reliability layer
// runs, but no fault ever fires.
func armFarPartition(tb testing.TB, nw *Network) {
	far := sim.Time(1 << 60)
	inj, err := faultnet.NewInjector(faultnet.Plan{
		Partitions: []faultnet.Partition{{A: 0b01, B: 0b10, From: far, Until: far + 1}},
	}, 2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	nw.InstallFaults(inj)
}

func benchPooledHop(b *testing.B, armed bool) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	nw := New(eng, 2, DefaultParams())
	if armed {
		armFarPartition(b, nw)
	}
	got := 0
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) { got++ })
	eng.Spawn("sender", func(p *sim.Proc) {
		ep := nw.Endpoint(0)
		for i := 0; i < b.N; i++ {
			m := ep.AllocMessage()
			m.Size = 32
			ep.Send(p, 1, m)
		}
		for got < b.N { // the run ends when the last proc exits
			p.Sleep(10 * sim.Millisecond)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// TestMsgHopSteadyStateAllocFree pins the acceptance criterion as a
// test, not just a benchmark number: after warmup, a pooled one-hop send
// costs zero heap allocations.
func TestMsgHopSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, DefaultParams())
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {})
	const warmup, measured = 200, 2000
	var avg float64
	eng.Spawn("sender", func(p *sim.Proc) {
		ep := nw.Endpoint(0)
		for i := 0; i < warmup; i++ {
			m := ep.AllocMessage()
			m.Size = 32
			ep.Send(p, 1, m)
		}
		avg = testing.AllocsPerRun(measured, func() {
			m := ep.AllocMessage()
			m.Size = 32
			ep.Send(p, 1, m)
		})
	})
	mustRun(t, eng)
	// AllocsPerRun rounds to integers; any steady-state allocation on the
	// path shows up as >= 1.
	if avg != 0 {
		t.Fatalf("pooled send path allocates %.2f objects/msg in steady state, want 0", avg)
	}
}

// TestMsgHopArmedSteadyStateAllocFree pins the same criterion for the
// armed path: with the reliability layer installed (armFarPartition) a
// pooled
// one-hop send — sequence numbering, send-log retention, cumulative
// acks, retransmit-timer bookkeeping and all — also costs zero heap
// allocations in steady state. Envelopes are refcount-pooled, the timer
// and ack calendar records come from free lists, and the send log never
// sheds capacity.
func TestMsgHopArmedSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, DefaultParams())
	armFarPartition(t, nw)
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {})
	const warmup, measured = 200, 2000
	var avg float64
	eng.Spawn("sender", func(p *sim.Proc) {
		ep := nw.Endpoint(0)
		send := func() {
			m := ep.AllocMessage()
			m.Size = 32
			ep.Send(p, 1, m)
			// Drain before the next send: the armed path holds envelopes in
			// the send log until the ack returns, so an unbounded burst would
			// legitimately grow the log and the pools. Steady state for the
			// DSM is request/reply, not an infinite pipeline.
			p.Sleep(sim.Millisecond)
		}
		for i := 0; i < warmup; i++ {
			send()
		}
		avg = testing.AllocsPerRun(measured, send)
	})
	mustRun(t, eng)
	if avg != 0 {
		t.Fatalf("armed send path allocates %.2f objects/msg in steady state, want 0", avg)
	}
}
