package sim

import (
	"fmt"
	"strings"
	"testing"
)

// chooserFunc adapts a function to the Explorer interface.
type chooserFunc func(ties []EventInfo) int

func (f chooserFunc) ChooseTie(ties []EventInfo) int { return f(ties) }

// traceRun drives a small three-process program whose tied wakeups give
// the explorer decision points, and returns the observed event order.
func traceRun(x Explorer) []string {
	e := NewEngine(1)
	e.SetExplorer(x)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			p.Sleep(10) // all three tie at t=10
			order = append(order, name)
			p.Sleep(5) // and again at t=15
			order = append(order, name+"2")
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return order
}

func TestExplorerChooseZeroMatchesDefault(t *testing.T) {
	def := traceRun(nil)
	zero := traceRun(chooserFunc(func(ties []EventInfo) int { return 0 }))
	if fmt.Sprint(def) != fmt.Sprint(zero) {
		t.Fatalf("always-0 explorer diverged from default: %v vs %v", zero, def)
	}
}

func TestExplorerPerturbsTieOrder(t *testing.T) {
	last := traceRun(chooserFunc(func(ties []EventInfo) int { return len(ties) - 1 }))
	def := traceRun(nil)
	if fmt.Sprint(last) == fmt.Sprint(def) {
		t.Fatalf("always-last explorer produced the default order %v", def)
	}
	// Same multiset of events either way.
	if len(last) != len(def) {
		t.Fatalf("event counts differ: %v vs %v", last, def)
	}
}

// TestExplorerDecisionReplay records every (arity, choice) pair from a
// randomized-looking run and replays it: the event order must be
// bit-identical, the defining property of the decision trace.
func TestExplorerDecisionReplay(t *testing.T) {
	type dec struct{ n, k int }
	var recorded []dec
	rec := chooserFunc(func(ties []EventInfo) int {
		k := (len(recorded)*7 + 3) % len(ties)
		recorded = append(recorded, dec{len(ties), k})
		return k
	})
	first := traceRun(rec)

	pos := 0
	rep := chooserFunc(func(ties []EventInfo) int {
		if pos >= len(recorded) {
			t.Fatalf("replay asked for decision %d, only %d recorded", pos, len(recorded))
		}
		d := recorded[pos]
		pos++
		if d.n != len(ties) {
			t.Fatalf("replay decision %d: arity %d, recorded %d", pos-1, len(ties), d.n)
		}
		return d.k
	})
	second := traceRun(rep)
	if pos != len(recorded) {
		t.Fatalf("replay consumed %d of %d decisions", pos, len(recorded))
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("replay diverged: %v vs %v", second, first)
	}
}

// TestExplorerCapturesPanic: under exploration a process panic becomes
// an ErrPanic from Run instead of crashing the test binary.
func TestExplorerCapturesPanic(t *testing.T) {
	e := NewEngine(1)
	e.SetExplorer(chooserFunc(func(ties []EventInfo) int { return 0 }))
	e.Spawn("bystander", func(p *Proc) { p.Sleep(100) })
	e.Spawn("bomb", func(p *Proc) {
		p.Sleep(10)
		panic("invariant violated")
	})
	err := e.Run()
	pe, ok := err.(*ErrPanic)
	if !ok {
		t.Fatalf("err = %v, want *ErrPanic", err)
	}
	if pe.Proc != "bomb" || !strings.Contains(pe.Msg, "invariant violated") {
		t.Fatalf("ErrPanic = %+v", pe)
	}
	if pe.At != 10 {
		t.Fatalf("panic at %v, want t=10ns", pe.At)
	}
}

// TestExplorerCapturesCallbackPanic covers the engine-callback arm, whose
// finding names the callback as the culprit.
func TestExplorerCapturesCallbackPanic(t *testing.T) {
	e := NewEngine(1)
	e.SetExplorer(chooserFunc(func(ties []EventInfo) int { return 0 }))
	e.Spawn("w", func(p *Proc) { p.Sleep(100) })
	e.At(5, func() { panic("callback bomb") })
	err := e.Run()
	pe, ok := err.(*ErrPanic)
	if !ok {
		t.Fatalf("err = %v, want *ErrPanic", err)
	}
	if pe.Proc != "" || !strings.Contains(pe.Msg, "callback bomb") {
		t.Fatalf("ErrPanic = %+v", pe)
	}
	if want := "sim: panic at t=0.005us in engine callback: callback bomb"; pe.Error() != want {
		t.Fatalf("ErrPanic reads %q, want %q", pe.Error(), want)
	}
}

// TestDeadlockReportsWaitReason: a labeled primitive shows up in the
// deadlock error, so shrunk exploration repros say what each stuck
// process was waiting for.
func TestDeadlockReportsWaitReason(t *testing.T) {
	e := NewEngine(1)
	s := newSignal(e)
	s.SetLabel("reply for txn 7")
	ev := NewEvent(e)
	ev.SetLabel("lock-3")
	e.Spawn("askew", func(p *Proc) { s.Wait(p) })
	e.Spawn("parked", func(p *Proc) { s.Wait(p) }) // never signaled
	e.Spawn("queued", func(p *Proc) {
		p.Sleep(1)
		ev.wait(p) // never set
	})
	err := e.Run()
	de, ok := err.(*ErrDeadlock)
	if !ok {
		t.Fatalf("err = %v, want *ErrDeadlock", err)
	}
	if len(de.Waits) != 3 {
		t.Fatalf("Waits = %v, want 3 entries", de.Waits)
	}
	want := map[string]string{
		"askew":  "reply for txn 7",
		"parked": "reply for txn 7",
		"queued": "lock-3",
	}
	for _, w := range de.Waits {
		if want[w.Name] != w.Waiting {
			t.Errorf("%s waiting on %q, want %q", w.Name, w.Waiting, want[w.Name])
		}
	}
	msg := de.Error()
	if !strings.Contains(msg, "askew (waiting on reply for txn 7)") ||
		!strings.Contains(msg, "queued (waiting on lock-3)") {
		t.Errorf("deadlock message lacks wait reasons: %s", msg)
	}
	// Blocked stays the plain sorted name list for older consumers.
	if fmt.Sprint(de.Blocked) != "[askew parked queued]" {
		t.Errorf("Blocked = %v", de.Blocked)
	}
}

// TestUnlabeledDeadlockStillNamesProcs guards the zero-label rendering.
func TestUnlabeledDeadlockStillNamesProcs(t *testing.T) {
	e := NewEngine(1)
	s := newSignal(e)
	e.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	err := e.Run()
	de, ok := err.(*ErrDeadlock)
	if !ok {
		t.Fatalf("err = %v, want *ErrDeadlock", err)
	}
	if !strings.Contains(de.Error(), "[stuck]") {
		t.Errorf("message = %s", de.Error())
	}
}

// TestExplorerTiePushback: events not chosen stay in the calendar and
// are offered again, joined by newly scheduled same-instant events.
func TestExplorerTiePushback(t *testing.T) {
	var arities []int
	e := NewEngine(1)
	e.SetExplorer(chooserFunc(func(ties []EventInfo) int {
		arities = append(arities, len(ties))
		return len(ties) - 1
	}))
	for i := 0; i < 4; i++ {
		e.At(10, func() {})
	}
	e.Spawn("w", func(p *Proc) { p.Sleep(20) })
	mustRun(t, e)
	// 4 callbacks tie with each other (the spawn resume fires at t=0):
	// arity shrinks 4, 3, 2 and then the final pop is forced.
	if fmt.Sprint(arities) != "[4 3 2]" {
		t.Fatalf("arities = %v, want [4 3 2]", arities)
	}
}

// TestSetExplorerKeepsEarlierEvents: events scheduled for the current
// instant before the explorer was installed are offered with the ones
// scheduled after it, in seq order, and keep their seq when passed over.
func TestSetExplorerKeepsEarlierEvents(t *testing.T) {
	run := func(pick func(n int) int) (order string, arities []int) {
		e := NewEngine(1)
		var fired []string
		mark := func(s string) func() { return func() { fired = append(fired, s) } }
		e.At(0, mark("a"))
		e.At(0, mark("b"))
		e.SetExplorer(chooserFunc(func(ties []EventInfo) int {
			arities = append(arities, len(ties))
			return pick(len(ties))
		}))
		e.At(0, mark("c"))
		e.Spawn("w", func(p *Proc) {
			fired = append(fired, "w")
			p.Sleep(1) // Run ends with its last process; let the tie drain first
		})
		mustRun(t, e)
		return fmt.Sprint(fired), arities
	}
	if order, arities := run(func(int) int { return 0 }); order != "[a b c w]" || fmt.Sprint(arities) != "[4 3 2]" {
		t.Errorf("always-first: order %v arities %v, want [a b c w] [4 3 2]", order, arities)
	}
	// Picking the second of the tie each time passes "a" over three times;
	// it must still be the oldest when it finally runs, forced.
	if order, arities := run(func(int) int { return 1 }); order != "[b c w a]" || fmt.Sprint(arities) != "[4 3 2]" {
		t.Errorf("always-second: order %v arities %v, want [b c w a] [4 3 2]", order, arities)
	}
}
