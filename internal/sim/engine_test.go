package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// newSignal returns a signal bound to e.
func newSignal(e *Engine) *signal { return &signal{e: e} }

// wait blocks p until the event is set; it returns at once if it is.
func (ev *Event) wait(p *Proc) {
	for !ev.set {
		ev.sig.Wait(p)
	}
}

// mustRun runs e and fails the test if Run does.
func mustRun(t testing.TB, e *Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	mustRun(t, e)
	if woke != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5us", woke)
	}
}

func TestEventOrderIsTimestampThenSeq(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "a")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "b")
	})
	e.Spawn("c", func(p *Proc) {
		p.Sleep(5)
		order = append(order, "c")
	})
	mustRun(t, e)
	want := []string{"c", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine(1)
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(3)
		e.Spawn("child", func(q *Proc) {
			q.Sleep(4)
			childRan = true
			if q.Now() != 7 {
				t.Errorf("child woke at %v, want 7ns", q.Now())
			}
		})
	})
	mustRun(t, e)
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestSignalBroadcastFIFO(t *testing.T) {
	e := NewEngine(1)
	s := newSignal(e)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Duration(i)) // register in a known order
			s.Wait(p)
			order = append(order, i)
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(100)
		s.Broadcast()
	})
	mustRun(t, e)
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order = %v, want ascending", order)
		}
	}
}

func TestEventLatch(t *testing.T) {
	e := NewEngine(1)
	ev := NewEvent(e)
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		ev.wait(p)
		at = p.Now()
		ev.wait(p) // already set: returns immediately
		if p.Now() != at {
			t.Error("second Wait on set event blocked")
		}
	})
	e.Spawn("setter", func(p *Proc) {
		p.Sleep(42)
		ev.Set()
	})
	mustRun(t, e)
	if at != 42 {
		t.Fatalf("waiter released at %v, want 42ns", at)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			q.Put(i)
		}
	})
	mustRun(t, e)
	for i := range got {
		if got[i] != i {
			t.Fatalf("got %v, want [0 1 2]", got)
		}
	}
}

// TestQueueThatNeverDrainsStaysSmall: a saturated consumer keeps one to
// three items queued for a million messages, so the queue never empties
// and never gets to rewind its head; Put must slide the live items down
// instead of dragging the dead prefix along. A second getter keeps the
// signal's waiter list from draining the same way. Order is FIFO
// throughout, through Get and TryGet alike.
func TestQueueThatNeverDrainsStaysSmall(t *testing.T) {
	msgs := 1_000_000
	if testing.Short() {
		msgs = 50_000
	}
	e := NewEngine(1)
	q := NewQueue[int](e)
	idle := NewQueue[int](e) // never fed: its getters wait for good
	for i := 0; i < 2; i++ {
		e.SpawnDaemon("idler", func(p *Proc) { idle.Get(p) })
	}
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			q.Put(i)
		}
		for i := 3; i < msgs; i++ {
			p.Sleep(2)
			q.Put(i)
			idle.sig.Pulse() // one idler wakes, finds nothing and waits again behind the other
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		p.Sleep(1)
		for want := 0; want < msgs; want++ {
			if n := q.Len(); n < 1 || n > 3 {
				t.Fatalf("%d items queued before message %d, want 1 to 3", n, want)
			}
			var got int
			ok := true
			if want%2 == 0 {
				got = q.Get(p)
			} else {
				got, ok = q.TryGet()
			}
			if !ok || got != want {
				t.Fatalf("message %d: got %d (ok=%v)", want, got, ok)
			}
			p.Sleep(2)
		}
	})
	mustRun(t, e)
	if c := cap(q.items); c > 8 {
		t.Errorf("the queue's backing array grew to %d slots holding at most 3 items", c)
	}
	if c := cap(idle.sig.waiters); c > 8 {
		t.Errorf("the signal's waiter list grew to %d slots holding at most 2 waiters", c)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	s := newSignal(e)
	e.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	err := e.Run()
	de, ok := err.(*ErrDeadlock)
	if !ok {
		t.Fatalf("err = %v, want *ErrDeadlock", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck" {
		t.Fatalf("blocked = %v, want [stuck]", de.Blocked)
	}
}

func TestDaemonDoesNotBlockRun(t *testing.T) {
	e := NewEngine(1)
	e.SpawnDaemon("forever", func(p *Proc) {
		for {
			p.Sleep(Millisecond)
		}
	})
	e.Spawn("worker", func(p *Proc) { p.Sleep(10 * Microsecond) })
	mustRun(t, e)
	if e.Now() != Time(10*Microsecond) {
		t.Fatalf("ended at %v, want 10us", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("runner", func(p *Proc) {
		for i := 0; ; i++ {
			p.Sleep(Microsecond)
			if p.Now() >= Time(5*Microsecond) {
				e.Stop()
			}
		}
	})
	mustRun(t, e)
	if e.Now() != Time(5*Microsecond) {
		t.Fatalf("stopped at %v, want 5us", e.Now())
	}
}

func TestEngineCallbacks(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(30, func() { fired = append(fired, e.Now()) })
	e.At(10, func() { fired = append(fired, e.Now()) })
	e.Spawn("w", func(p *Proc) { p.Sleep(100) })
	mustRun(t, e)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 30 {
		t.Fatalf("fired = %v, want [10 30]", fired)
	}
}

// TestSameInstantOrder pins the order at one instant T, which the
// calendar alone now carries: an event scheduled for T before the clock
// got there fires ahead of everything scheduled at T during T, however
// those are addressed (At(T), After(0), a time already past).
func TestSameInstantOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	mark := func(s string) func() { return func() { order = append(order, s) } }
	e.At(10, func() {
		order = append(order, "first")
		e.At(10, mark("during-1"))
		e.After(0, mark("during-2"))
		e.At(3, mark("during-3")) // the past is not addressable: fires now
		e.At(11, mark("later"))
	})
	e.At(10, mark("older"))
	e.Spawn("w", func(p *Proc) { p.Sleep(100) })
	mustRun(t, e)
	if got, want := fmt.Sprint(order), "[first older during-1 during-2 during-3 later]"; got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestSleepFastPathConditions pins when Sleep may advance the clock in
// place: never past or onto an event already scheduled — one tying the
// wake-up time has the smaller seq and must fire first, and for Sleep(0)
// that includes events at the current instant — and always on an empty
// calendar, Sleep(0) included. The counters show which path ran.
func TestSleepFastPathConditions(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(10, func() { order = append(order, "timer") })
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10) // the timer ties the wake-up time
		order = append(order, "woke")
		if c := e.Counters(); c.SleepFast != 0 || c.Events != 3 || c.Switches != 1 {
			t.Errorf("after the tied Sleep: %+v, want 3 events (spawn, timer, resume), 1 switch, no fast path", c)
		}
		p.Sleep(0) // nothing pending
		p.Sleep(5)
		if c := e.Counters(); c.SleepFast != 2 || c.Events != 3 {
			t.Errorf("on an empty calendar: %+v, want 2 fast sleeps and no new event", c)
		}
		e.After(0, func() { order = append(order, "same-instant") })
		p.Sleep(0) // an event at the current instant is pending
		order = append(order, "yielded")
		if c := e.Counters(); c.SleepFast != 2 || c.Events != 5 || c.Switches != 1 || c.MaxPending != 2 {
			t.Errorf("after the yield: %+v, want 5 events, still 1 switch and 2 fast sleeps, at most 2 pending", c)
		}
	})
	mustRun(t, e)
	if got, want := fmt.Sprint(order), "[timer woke same-instant yielded]"; got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if e.Now() != 15 {
		t.Fatalf("finished at %v, want 15", e.Now())
	}
}

// TestHandoverPrice pins what a process switch costs in coroutine
// switches, by the shape of the schedule: two processes trading the
// processor pay exactly one per switch, a round-robin over eight pays
// 2(n-1)/n = 1.75, and nothing pays more than two. The allowance is the
// end of the run: each process's last yield is a switch to no one.
func TestHandoverPrice(t *testing.T) {
	const switches = 8000
	for _, row := range []struct {
		name     string
		procs    uint64
		spawn    func(e *Engine)
		num, den uint64 // coroswitches per switch, at most
	}{
		{"sleep ping-pong", 2, func(e *Engine) { spawnRoundRobin(e, 2, switches) }, 1, 1},
		{"signal ping-pong", 2, func(e *Engine) { spawnSignalPingPong(e, switches) }, 1, 1},
		{"round-robin 8", 8, func(e *Engine) { spawnRoundRobin(e, 8, switches) }, 7, 4},
	} {
		e := NewEngine(1)
		row.spawn(e)
		mustRun(t, e)
		c := e.Counters()
		t.Logf("%-16s %d switches, %d coroswitches (%.3f per switch)", row.name, c.Switches, c.Coroswitches,
			float64(c.Coroswitches)/float64(c.Switches))
		if c.Switches < switches {
			t.Errorf("%s: %d switches, want at least %d: the shape no longer switches on every park", row.name, c.Switches, switches)
		}
		if c.Coroswitches < c.Switches || c.Coroswitches*row.den > c.Switches*row.num+2*row.procs*row.den {
			t.Errorf("%s: %d coroswitches for %d switches, want %d/%d per switch", row.name, c.Coroswitches, c.Switches, row.num, row.den)
		}
	}
}

// Determinism: the same seed and program must produce the identical
// interleaving, observed here as the exact sequence of (time, proc) pairs.
func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []string {
		e := NewEngine(seed)
		var trace []string
		q := NewQueue[int](e)
		for i := 0; i < 3; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 4; j++ {
					d := Duration(e.Rand().Intn(50))
					p.Sleep(d)
					q.Put(i)
					trace = append(trace, fmt.Sprintf("%d@%d", i, p.Now()))
				}
			})
		}
		e.Spawn("drain", func(p *Proc) {
			for j := 0; j < 12; j++ {
				v := q.Get(p)
				trace = append(trace, fmt.Sprintf("got%d@%d", v, p.Now()))
			}
		})
		mustRun(t, e)
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// Property: for any set of sleep durations, every process observes its own
// cumulative sleep as its finish time, and the engine finishes at the max.
func TestSleepAccumulationProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 64 {
			durs = durs[:64]
		}
		e := NewEngine(3)
		finish := make([]Time, len(durs))
		var max Time
		for i, d := range durs {
			i, d := i, Duration(d)
			if Time(d) > max {
				max = Time(d)
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				finish[i] = p.Now()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i, d := range durs {
			if finish[i] != Time(d) {
				return false
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDurationString: a duration prints in the largest unit it reaches.
func TestDurationString(t *testing.T) {
	for d, want := range map[Duration]string{
		1500 * Millisecond: "1.500s", 2 * Millisecond: "2.000ms", 3 * Microsecond: "3.000us", 7: "7ns",
	} {
		if got := d.String(); got != want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(d), got, want)
		}
	}
}
