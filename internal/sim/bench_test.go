package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventDispatch measures raw calendar throughput: schedule and
// fire engine callbacks.
func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	e.Spawn("driver", func(p *Proc) {
		for n < b.N {
			p.Sleep(1000)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessSwitch measures one Sleep with nothing else pending:
// the fast path, which advances the clock in place — no calendar event
// and no coroutine switch (BenchmarkProcessHandover measures a real one).
func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueHandoff measures producer->consumer rendezvous.
func BenchmarkQueueHandoff(b *testing.B) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Sleep(1)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// spawnRoundRobin spawns procs processes that sleep on interleaved
// phases, so every Sleep finds another process's resume first in the
// calendar and gives up the processor to it: switches real hand-offs in
// all, p0 -> p1 -> ... -> p0.
func spawnRoundRobin(e *Engine, procs, switches int) {
	for i := 0; i < procs; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Sleep(Duration(i))
			for j := 0; j < switches/procs; j++ {
				p.Sleep(Duration(procs))
			}
		})
	}
}

// spawnSignalPingPong spawns two processes that wake each other through
// a Signal each and block, switches times in all: the rendezvous shape
// (request, reply) with the clock standing still.
func spawnSignalPingPong(e *Engine, switches int) {
	ping, pong := NewSignal(e), NewSignal(e)
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < switches/2; i++ {
			pong.Wait(p)
			ping.Pulse()
		}
	})
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < switches/2; i++ {
			pong.Pulse()
			ping.Wait(p)
		}
	})
}

// The hand-over benchmarks price a real process switch by the shape of
// the schedule, without a workload (TestHandoverPrice pins the
// coroswitch counts behind them): two processes trading the processor
// pay one coroswitch per switch — the parker resumes its successor,
// which yields straight back — through Sleep and through Signal alike,
// and a round-robin over n pays 2(n-1)/n, n-1 resumes up the chain and
// n-1 yields back down it per lap. 0 allocs/op.
func benchHandover(b *testing.B, spawn func(e *Engine, switches int)) {
	e := NewEngine(1)
	spawn(e, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkProcessHandover(b *testing.B) {
	benchHandover(b, func(e *Engine, n int) { spawnRoundRobin(e, 2, n) })
}

func BenchmarkProcessHandoverSignal(b *testing.B) { benchHandover(b, spawnSignalPingPong) }

func BenchmarkProcessHandover8(b *testing.B) {
	benchHandover(b, func(e *Engine, n int) { spawnRoundRobin(e, 8, n) })
}

// holdModel drives a calendar the way the classic hold benchmark does —
// pop the minimum, push one event later than it — so the pending count
// stays where fill put it. The delays are the engine's mix: seven of
// eight events land within 256 ns of the clock (CPU charges, wire
// arrivals, poll fires) and one in eight is a far timer (a retransmit
// timeout), which then sits behind thousands of near-term events.
type holdModel struct {
	cal calendar
	seq uint64
	rng uint64
}

func (h *holdModel) push(now Time) {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	d := Time(h.rng >> 56)
	if h.rng&7 == 0 {
		d += 100_000
	}
	h.seq++
	h.cal.push(now+d, h.seq, payload{fn: callFunc0})
}

func newHoldModel(pending int) *holdModel {
	h := &holdModel{rng: 0x9E3779B97F4A7C15}
	for i := 0; i < pending; i++ {
		h.push(0)
	}
	h.run(4 * pending) // reach the steady mix of near events and far timers
	return h
}

func (h *holdModel) run(ops int) {
	for i := 0; i < ops; i++ {
		now, _ := h.cal.pop()
		h.push(now)
	}
}

// BenchmarkCalendarHold prices one pop + push at a fixed number of
// pending events. The engine runs at 5–45 pending on the measured
// workloads and a few hundred at worst; 4096 is there to show where the
// O(pending) insertion scan stops paying (DESIGN.md §6 has the crossover
// against the retired heap).
func BenchmarkCalendarHold(b *testing.B) {
	for _, pending := range []int{8, 64, 256, 4096} {
		b.Run(fmt.Sprint(pending), func(b *testing.B) {
			h := newHoldModel(pending)
			b.ReportAllocs()
			b.ResetTimer()
			h.run(b.N)
		})
	}
}

// TestCalendarSteadyStateAllocFree pins the calendar's steady state at
// 0 allocs per push/pop, key array, slab and free list included: once
// the arrays have grown to the working size, slots only recycle.
func TestCalendarSteadyStateAllocFree(t *testing.T) {
	h := newHoldModel(200)
	if avg := testing.AllocsPerRun(100, func() { h.run(1000) }); avg != 0 {
		t.Fatalf("calendar steady state allocates: %.2f allocs per 1000 pop+push, want 0", avg)
	}
}
