package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// idleCount reads the length of the package's idle-carrier list.
func idleCount() int {
	idleCarriers.Lock()
	defer idleCarriers.Unlock()
	return len(idleCarriers.list)
}

// isIdle reports whether c sits on the idle list.
func isIdle(c *carrier) bool {
	idleCarriers.Lock()
	defer idleCarriers.Unlock()
	for _, x := range idleCarriers.list {
		if x == c {
			return true
		}
	}
	return false
}

// drivers returns the processes of e waiting in a resume call: the
// resume chain above Run, in no particular order.
func drivers(e *Engine) []*Proc {
	var ds []*Proc
	for _, p := range e.procs {
		if p.driving {
			ds = append(ds, p)
		}
	}
	return ds
}

// driving is the depth of the resume chain above Run.
func driving(e *Engine) int { return len(drivers(e)) }

// stack spawns n processes whose first Sleep parks each on top of the
// one before — p0's successor is p1's first resume, p1's is p2's — so
// that the last, which wakes first, runs top with the other n-1 waiting
// below it as a chain of drivers; those sleep on if the hand-over ever
// unwinds to them. Below the top they are daemons when asked. The slice
// returned counts how often each process's deferred function ran.
func stack(t *testing.T, e *Engine, n int, daemonsBelow bool, top func(*Proc)) []int {
	exits := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		spawn := e.Spawn
		if daemonsBelow && i < n-1 {
			spawn = e.SpawnDaemon
		}
		spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			defer func() { exits[i]++ }()
			p.Sleep(Duration(10 * (n - i)))
			if i < n-1 {
				p.Sleep(1000)
				return
			}
			if d := driving(e); d != n-1 {
				t.Errorf("top of the stack runs above %d drivers, want %d", d, n-1)
			}
			top(p)
		})
	}
	return exits
}

// wantExits checks that every deferred function stack counted ran once.
func wantExits(t *testing.T, exits []int) {
	t.Helper()
	for i, n := range exits {
		if n != 1 {
			t.Errorf("p%d's deferred function ran %d times, want once", i, n)
		}
	}
}

// The ways a Run ends, each with lifecycleProcs processes live at once:
// everything finishes; Stop with everything mid-flight; a deadlock;
// daemons abandoned when the foreground drains; Stop from the top of a
// resume chain lifecycleProcs-1 drivers deep; the foreground draining
// with every other process parked mid-sequence by a Stepper.
const lifecycleProcs = 12

var lifecycleShapes = []func(t *testing.T){
	func(t *testing.T) { // clean
		e := NewEngine(1)
		for i := 0; i < lifecycleProcs; i++ {
			e.Spawn("w", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(3)
				}
			})
		}
		mustRun(t, e)
	},
	func(t *testing.T) { // stop
		e := NewEngine(1)
		for i := 0; i < lifecycleProcs; i++ {
			e.Spawn("w", func(p *Proc) {
				for {
					p.Sleep(3)
					if p.Now() > 50 {
						e.Stop()
					}
				}
			})
		}
		mustRun(t, e)
	},
	func(t *testing.T) { // deadlock
		e := NewEngine(1)
		s := newSignal(e)
		for i := 0; i < lifecycleProcs; i++ {
			e.Spawn("w", func(p *Proc) {
				p.Sleep(3)
				s.Wait(p)
			})
		}
		if _, ok := e.Run().(*ErrDeadlock); !ok {
			t.Fatal("no deadlock reported")
		}
	},
	func(t *testing.T) { // daemons
		e := NewEngine(1)
		for i := 0; i < lifecycleProcs-1; i++ {
			e.SpawnDaemon("d", func(p *Proc) {
				for {
					p.Sleep(7)
				}
			})
		}
		e.Spawn("w", func(p *Proc) { p.Sleep(100) })
		mustRun(t, e)
	},
	func(t *testing.T) { // stop, deep
		e := NewEngine(1)
		exits := stack(t, e, lifecycleProcs, false, func(*Proc) { e.Stop() })
		mustRun(t, e)
		wantExits(t, exits)
	},
	func(t *testing.T) { // mid-sequence
		e := NewEngine(1)
		sig, never := newSignal(e), false
		exits := make([]int, lifecycleProcs-1)
		for i := range exits {
			i := i
			e.SpawnDaemon("d", func(p *Proc) {
				defer func() { exits[i]++ }()
				if i%2 == 0 {
					p.Drive(&napper{d: 7, n: 1 << 30}) // reaped with a resume in the calendar
				} else {
					p.Drive(&awaiter{p: p, sig: sig, done: &never}) // reaped blocked
				}
				t.Error("a process reaped mid-sequence ran on past Drive")
			})
		}
		e.Spawn("w", func(p *Proc) { p.Sleep(100) })
		mustRun(t, e)
		wantExits(t, exits)
	},
}

// TestCarriersDoNotGrowPerRun: engines run back to back reuse the same
// coroutines. After one warm-up round, 200 more runs of every ending
// leave the goroutine count and the idle list exactly where they were —
// bounded by the most processes ever live at once, not by the number of
// runs.
func TestCarriersDoNotGrowPerRun(t *testing.T) {
	for _, run := range lifecycleShapes {
		run(t)
	}
	idle, gs := idleCount(), runtime.NumGoroutine()
	if idle < lifecycleProcs {
		t.Fatalf("idle list holds %d carriers after runs of %d live processes: carriers are not coming back", idle, lifecycleProcs)
	}
	for i := 0; i < 200; i++ {
		lifecycleShapes[i%len(lifecycleShapes)](t)
	}
	if got := idleCount(); got != idle {
		t.Errorf("idle list went from %d to %d carriers over 200 runs", idle, got)
	}
	if got := runtime.NumGoroutine(); got > gs {
		t.Errorf("goroutines went from %d to %d over 200 runs", gs, got)
	}
}

// TestReapedProcRunsDefersOnce: a process still parked when Run returns
// is unwound — each deferred function runs exactly once, nothing after
// the blocking call runs — and its carrier is back on the idle list.
func TestReapedProcRunsDefersOnce(t *testing.T) {
	e := NewEngine(1)
	s := newSignal(e)
	var blockedDefers, daemonDefers, resumed int
	var blockedCarrier *carrier
	e.SpawnDaemon("blocked", func(p *Proc) {
		defer func() { blockedDefers++ }()
		defer s.Pulse() // touches the engine while unwinding
		blockedCarrier = p.c
		s.Wait(p)
		resumed++
	})
	e.SpawnDaemon("ticker", func(p *Proc) {
		defer func() {
			daemonDefers++
			s.Wait(p) // blocking while being reaped unwinds further, it does not park
			resumed++
		}()
		for {
			p.Sleep(5)
		}
	})
	e.Spawn("w", func(p *Proc) { p.Sleep(12) })
	mustRun(t, e)
	if blockedDefers != 1 || daemonDefers != 1 {
		t.Errorf("deferred functions ran %d and %d times, want once each", blockedDefers, daemonDefers)
	}
	if resumed != 0 {
		t.Errorf("a reaped process ran on past its blocking call (%d times)", resumed)
	}
	if !isIdle(blockedCarrier) {
		t.Error("the reaped process's carrier did not return to the idle list")
	}
}

// TestNeverStartedProcTakesNoCarrier: a process whose first resume never
// fires (Stop came first) is dropped at Run exit without a coroutine.
func TestNeverStartedProcTakesNoCarrier(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Spawn("stopper", func(p *Proc) { e.Stop() })
	late := e.Spawn("late", func(p *Proc) { ran = true })
	before := idleCount()
	mustRun(t, e)
	if ran || late.c != nil {
		t.Errorf("never-started process: ran=%v carrier=%v", ran, late.c)
	}
	// stopper took one carrier from the list (or made one) and returned
	// it; late must not have added a second.
	if got := idleCount(); got > before+1 {
		t.Errorf("idle list grew from %d to %d", before, got)
	}
}

// TestConcurrentEnginesShareCarriers is the bench.Workers shape: engines
// running at the same time on different goroutines draw from and return
// to one idle list. Under -race this is what would catch a carrier
// handed to two engines, or released while still switching.
func TestConcurrentEnginesShareCarriers(t *testing.T) {
	const workers, runs = 4, 50
	want := pingPong(t, 8, 20)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				if got := pingPong(t, 8, 20); got != want {
					t.Errorf("concurrent run ended at %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// pingPong runs procs processes that each sleep rounds times on
// interleaved phases — every Sleep is a real switch to another process —
// plus a short-lived child per process, and returns the end time. A
// child is resumed, and when it finishes its carrier released, by
// whichever process parked before it — not by the Run goroutine.
func pingPong(t *testing.T, procs, rounds int) Time {
	e := NewEngine(1)
	for i := 0; i < procs; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Duration(i))
			e.Spawn("child", func(q *Proc) {
				if driving(e) == 0 {
					t.Error("a child was resumed by Run, not by the process that parked")
				}
				q.Sleep(1)
			})
			for j := 0; j < rounds; j++ {
				p.Sleep(Duration(procs))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Error(err)
	}
	return e.Now()
}

// TestProcPanicSurfacesFromRun: a panic in a process comes out of Run on
// the caller's goroutine with its original value, the other processes
// are still reaped, and the carrier the panic unwound is not reused.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ n int }
	e := NewEngine(1)
	var hosted *carrier
	bystanderDefers := 0
	e.Spawn("bystander", func(p *Proc) {
		defer func() { bystanderDefers++ }()
		p.Sleep(1000)
	})
	e.Spawn("faulty", func(p *Proc) {
		hosted = p.c
		p.Sleep(5)
		panic(boom{42})
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		return e.Run()
	}()
	if got != (boom{42}) {
		t.Fatalf("Run gave %v, want panic(boom{42})", got)
	}
	if bystanderDefers != 1 {
		t.Errorf("bystander's deferred function ran %d times, want 1", bystanderDefers)
	}
	if isIdle(hosted) {
		t.Error("the carrier a panic unwound is back on the idle list")
	}
}

// TestProcGoexitEndsRunGoroutine: t.Fatal inside a process is a
// runtime.Goexit there; it must end the goroutine that called Run (so
// the test that owns it fails), not strand it.
func TestProcGoexitEndsRunGoroutine(t *testing.T) {
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e := NewEngine(1)
		e.Spawn("fatal", func(p *Proc) {
			p.Sleep(1)
			runtime.Goexit()
		})
		_ = e.Run() // unreachable result: the goroutine exits inside Run
		returned = true
	}()
	<-done
	if returned {
		t.Error("Run returned normally after a Goexit inside a process")
	}
}

// TestExploredPanicRetiresCarrier: under exploration the same panic is a
// finding (ErrPanic), and its carrier is likewise not reused.
func TestExploredPanicRetiresCarrier(t *testing.T) {
	e := NewEngine(1)
	e.SetExplorer(firstTie{})
	var hosted *carrier
	e.Spawn("faulty", func(p *Proc) {
		hosted = p.c
		p.Sleep(5)
		panic("invariant broken")
	})
	e.Spawn("other", func(p *Proc) { p.Sleep(1000) })
	pe, ok := e.Run().(*ErrPanic)
	if !ok || pe.Proc != "faulty" || pe.Msg != "invariant broken" {
		t.Fatalf("Run gave %v, want ErrPanic from faulty", pe)
	}
	if isIdle(hosted) {
		t.Error("the carrier a panic unwound is back on the idle list")
	}
}

// TestChildCarrierReleasedByResumer: a child that finishes hands its
// carrier back through the process that resumed it — the parent here,
// parked in its Sleep — and it is on the idle list before Run's
// goroutine has run again.
func TestChildCarrierReleasedByResumer(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("parent", func(p *Proc) {
		var hosted *carrier
		e.Spawn("child", func(q *Proc) { hosted = q.c })
		p.Sleep(5)
		if !isIdle(hosted) {
			t.Error("the finished child's carrier is not on the idle list when its resumer runs on")
		}
		if c := e.Counters(); c.Switches != 3 || c.Coroswitches != 3 {
			t.Errorf("%+v, want 3 switches (parent, child, parent) for 3 coroswitches (2 resumes, the child's last yield)", c)
		}
	})
	mustRun(t, e)
}

// chainProcs is how many processes the chain tests stack: Run -> p0 ->
// p1 -> p2 -> p3, three drivers and Run below the one that ends the run.
const chainProcs = 4

// TestChainPanicSurfacesFromRun: a panic on top of a resume chain comes
// out of Run on the caller's goroutine with its original value. On the
// way down it unwinds every driver below it (their deferred functions
// run, once); a parked process off the chain is reaped as usual.
func TestChainPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ n int }
	e := NewEngine(1)
	exits := stack(t, e, chainProcs, false, func(*Proc) { panic(boom{42}) })
	bystanderDefers := 0
	e.Spawn("bystander", func(p *Proc) {
		defer func() { bystanderDefers++ }()
		p.Sleep(1000)
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		return e.Run()
	}()
	if got != (boom{42}) {
		t.Fatalf("Run gave %v, want panic(boom{42})", got)
	}
	wantExits(t, exits)
	if bystanderDefers != 1 {
		t.Errorf("bystander's deferred function ran %d times, want 1", bystanderDefers)
	}
}

// TestChainGoexitEndsRunGoroutine: t.Fatal on top of a resume chain ends
// the goroutine that called Run, through every driver in between.
func TestChainGoexitEndsRunGoroutine(t *testing.T) {
	returned := false
	var exits []int
	done := make(chan struct{})
	go func() {
		defer close(done)
		e := NewEngine(1)
		exits = stack(t, e, chainProcs, false, func(*Proc) { runtime.Goexit() })
		_ = e.Run() // unreachable result: the goroutine exits inside Run
		returned = true
	}()
	<-done
	if returned {
		t.Error("Run returned normally after a Goexit on top of a chain")
	}
	wantExits(t, exits)
}

// TestChainExploredPanicNamesItsProcess: under exploration the panic is
// recovered where it happened, so the finding names the process on top
// of the chain, not a driver below it — those are reaped as usual and
// only the carrier the panic unwound retires.
func TestChainExploredPanicNamesItsProcess(t *testing.T) {
	e := NewEngine(1)
	e.SetExplorer(firstTie{})
	var below []*carrier
	exits := stack(t, e, chainProcs, false, func(*Proc) {
		for _, p := range drivers(e) {
			below = append(below, p.c)
		}
		panic("invariant broken")
	})
	pe, ok := e.Run().(*ErrPanic)
	if !ok || pe.Proc != fmt.Sprintf("p%d", chainProcs-1) || pe.Msg != "invariant broken" {
		t.Fatalf("Run gave %v, want ErrPanic from p%d", pe, chainProcs-1)
	}
	wantExits(t, exits)
	for _, c := range below {
		if !isIdle(c) {
			t.Error("a driver's carrier did not return to the idle list")
		}
	}
}

// TestChainUnwindsWhenRunEnds: Stop, and the last foreground process
// finishing, on top of a resume chain hand nil down through every driver
// to Run, which returns nil and reaps them.
func TestChainUnwindsWhenRunEnds(t *testing.T) {
	for name, daemonsBelow := range map[string]bool{"stop": false, "last foreground": true} {
		e := NewEngine(1)
		exits := stack(t, e, chainProcs, daemonsBelow, func(*Proc) {
			if !daemonsBelow {
				e.Stop()
			}
		})
		if err := e.Run(); err != nil {
			t.Errorf("%s: Run gave %v, want nil", name, err)
		}
		if e.Now() != 10 {
			t.Errorf("%s: ended at %v, want 10ns", name, e.Now())
		}
		wantExits(t, exits)
	}
}

// TestChainDeadlockReport: a deadlock found by the process on top of a
// resume chain — every process blocks as its first act, so each drives
// the next and the last finds the calendar empty — reports every blocked
// process with its wait label, drivers included.
func TestChainDeadlockReport(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < chainProcs; i++ {
		i := i
		s := newSignal(e)
		s.SetLabel(fmt.Sprintf("reply %d", i))
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			if d := driving(e); d != i {
				t.Errorf("p%d blocks above %d drivers, want %d", i, d, i)
			}
			s.Wait(p)
		})
	}
	de, ok := e.Run().(*ErrDeadlock)
	if !ok {
		t.Fatal("no deadlock reported")
	}
	want := "sim: deadlock at t=0.000us: blocked processes [p0 (waiting on reply 0) p1 (waiting on reply 1) " +
		"p2 (waiting on reply 2) p3 (waiting on reply 3)]"
	if de.Error() != want {
		t.Errorf("got  %s\nwant %s", de.Error(), want)
	}
}

type firstTie struct{}

func (firstTie) ChooseTie([]EventInfo) int { return 0 }

// switchAllocs is the number of heap objects one engine run of procs
// processes trading the processor n times in all allocates.
func switchAllocs(procs, n int) float64 {
	return runAllocs(func(e *Engine) {
		spawnRoundRobin(e, procs, n) // another process wakes first: never the fast path
	})
}

// runAllocs is the number of heap objects one engine run of what spawn
// sets up allocates.
func runAllocs(spawn func(e *Engine)) float64 {
	return testing.AllocsPerRun(5, func() {
		e := NewEngine(1)
		spawn(e)
		if err := e.Run(); err != nil {
			panic(err)
		}
	})
}

// TestProcessSwitchAllocFree: a real hand-off between processes (one
// parks and resumes its successor, which parks and yields back — through
// a chain of seven drivers, with eight) allocates nothing: a run with
// twenty times the switches costs not one object more. Nor does Drive:
// the stepper is an object the caller already has, and the receive and
// call sequences of the kernels (bench_test.go) run twenty times as often
// on the same heap.
func TestProcessSwitchAllocFree(t *testing.T) {
	for _, procs := range []int{2, 8} {
		few, many := switchAllocs(procs, 2000), switchAllocs(procs, 40000)
		if many > few {
			t.Errorf("%d processes: %v objects for 2000 switches, %v for 40000: switching allocates", procs, few, many)
		}
	}
	for name, spawn := range map[string]func(e *Engine, n int){
		"receive": func(e *Engine, n int) { spawnReceive(e, n, true) },
		"call":    func(e *Engine, n int) { spawnCall(e, n, true) },
	} {
		few := runAllocs(func(e *Engine) { spawn(e, 1000) })
		many := runAllocs(func(e *Engine) { spawn(e, 20000) })
		if many > few {
			t.Errorf("%s sequence: %v objects for 1000 Drives, %v for 20000: Drive allocates", name, few, many)
		}
	}
}

// TestSpawnOnWarmCacheAllocatesNoCoroutine: with an idle carrier to
// ride, spawning, running and retiring a process costs its Proc and
// nothing else (the name is the caller's constant) — in particular not
// the ~10 objects of an iter.Pull.
func TestSpawnOnWarmCacheAllocatesNoCoroutine(t *testing.T) {
	const children = 1000
	run := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			e := NewEngine(1)
			e.Spawn("parent", func(p *Proc) {
				for i := 0; i < n; i++ {
					e.Spawn("child", func(q *Proc) { q.Sleep(1) })
					p.Sleep(2)
				}
			})
			if err := e.Run(); err != nil {
				panic(err)
			}
		})
	}
	perChild := (run(2*children) - run(children)) / children
	if perChild > 1.01 {
		t.Fatalf("spawn+run+retire costs %.2f objects per process on a warm cache, want 1 (the Proc)", perChild)
	}
}
