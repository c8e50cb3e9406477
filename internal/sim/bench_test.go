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
// a signal each and block, switches times in all: the rendezvous shape
// (request, reply) with the clock standing still.
func spawnSignalPingPong(e *Engine, switches int) {
	ping, pong := newSignal(e), newSignal(e)
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
// which yields straight back — through Sleep and through signal alike,
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

// receiver is a consumer's receive as a wait sequence, the shape of a
// service thread's: take the oldest item — or enlist for one and block —
// charge for it, run.
type receiver struct {
	p     *Proc
	q     *Queue[int]
	taken bool
}

func (r *receiver) Step() (Action, Duration) {
	if r.taken {
		r.taken = false
		return Run, 0
	}
	if _, ok := r.q.TryGet(); !ok {
		r.q.Enlist(r.p)
		return Block, 0
	}
	r.taken = true
	return SleepFor, 2
}

// spawnReceive spawns two producer-consumer pairs, n items in all, each
// consumer's receive a charged take: process code, or a receiver
// sequence. The pairs run a tick apart, so that one's producer runs
// inside the other's charge and no charge takes Sleep's in-place fast
// path — as on a cluster, where some other host's event is always next.
func spawnReceive(e *Engine, n int, driven bool) {
	for pair := 0; pair < 2; pair++ {
		pair := pair
		q := NewQueue[int](e)
		e.Spawn("producer", func(p *Proc) {
			p.Sleep(Duration(pair))
			for i := 0; i < n/2; i++ {
				q.Put(i)
				p.Sleep(4)
			}
		})
		e.Spawn("consumer", func(p *Proc) {
			r := &receiver{p: p, q: q}
			for i := 0; i < n/2; i++ {
				if driven {
					p.Drive(r)
				} else {
					q.Get(p)
					p.Sleep(2)
				}
			}
		})
	}
}

// caller is a request-reply call as a wait sequence, the shape of a
// blocking thread operation's: charge the send, put the posted request
// on the server's queue, block until the reply latch is set, charge the
// wake-up, run.
type caller struct {
	p     *Proc
	reqs  *Queue[*Event]
	reply *Event
	stage int
}

func (c *caller) Step() (Action, Duration) {
	switch c.stage {
	case 0: // posted: charge the send
		c.stage = 1
		return SleepFor, 2
	case 1: // transmit
		c.reqs.Put(c.reply)
		c.stage = 2
		fallthrough
	case 2: // wait for the reply
		if !c.reply.IsSet() {
			c.reply.Enlist(c.p)
			return Block, 0
		}
		c.stage = 3
		return SleepFor, 3
	default:
		c.stage = 0
		return Run, 0
	}
}

// spawnCall spawns two client-server pairs, n calls in all: process code,
// or a caller sequence. Like spawnReceive's, the pairs interleave, so
// every charge is a real wait with another process running inside it.
func spawnCall(e *Engine, n int, driven bool) {
	for pair := 0; pair < 2; pair++ {
		pair := pair
		reqs := NewQueue[*Event](e)
		e.SpawnDaemon("server", func(p *Proc) {
			for {
				reply := reqs.Get(p)
				p.Sleep(2)
				reply.Set()
			}
		})
		e.Spawn("client", func(p *Proc) {
			p.Sleep(Duration(pair))
			c := &caller{p: p, reqs: reqs, reply: NewEvent(e)}
			for i := 0; i < n/2; i++ {
				c.reply.Reset()
				if driven {
					p.Drive(c)
				} else {
					p.Sleep(2)
					reqs.Put(c.reply)
					c.reply.wait(p)
					p.Sleep(3)
				}
			}
		})
	}
}

// The Drive benchmarks price the two wait sequences the substrate runs
// engine-side, each against the same program as process code (the
// process/ sub-benchmark; BenchmarkQueueHandoff is the receive without
// the charge): the process version pays a switch at every Sleep and Wait,
// the stepper version one per operation. 0 allocs/op either way.
func benchDrive(b *testing.B, spawn func(e *Engine, n int, driven bool)) {
	for _, mode := range []struct {
		name   string
		driven bool
	}{{"process", false}, {"stepper", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := NewEngine(1)
			spawn(e, b.N, mode.driven)
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkDriveReceive(b *testing.B) { benchDrive(b, spawnReceive) }

func BenchmarkDriveCall(b *testing.B) { benchDrive(b, spawnCall) }

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
