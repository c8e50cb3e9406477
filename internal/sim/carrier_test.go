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

// The four ways a Run ends, each with lifecycleProcs processes live at
// once: everything finishes; Stop with everything mid-flight; a
// deadlock; daemons abandoned when the foreground drains.
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
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
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
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	},
	func(t *testing.T) { // deadlock
		e := NewEngine(1)
		s := NewSignal(e)
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
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
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
	s := NewSignal(e)
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
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
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
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
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
// plus a short-lived child per process, and returns the end time.
func pingPong(t *testing.T, procs, rounds int) Time {
	e := NewEngine(1)
	for i := 0; i < procs; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Duration(i))
			e.Spawn("child", func(q *Proc) { q.Sleep(1) })
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

type firstTie struct{}

func (firstTie) ChooseTie([]EventInfo) int { return 0 }

// switchAllocs is the number of heap objects one engine run of two
// processes trading the processor n times each allocates.
func switchAllocs(n int) float64 {
	return testing.AllocsPerRun(5, func() {
		e := NewEngine(1)
		for i := 0; i < 2; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				p.Sleep(Duration(i))
				for j := 0; j < n; j++ {
					p.Sleep(2) // the other process wakes first: never the fast path
				}
			})
		}
		if err := e.Run(); err != nil {
			panic(err)
		}
	})
}

// TestProcessSwitchAllocFree: a real switch between two processes (park,
// yield to the driver, resume the other) allocates nothing — a run with
// twenty times the switches costs not one object more.
func TestProcessSwitchAllocFree(t *testing.T) {
	few, many := switchAllocs(1000), switchAllocs(20000)
	if many > few {
		t.Fatalf("%v objects for 2x1000 switches, %v for 2x20000: switching allocates", few, many)
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
