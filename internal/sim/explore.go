package sim

import "fmt"

// Schedule exploration. A deterministic engine always fires events with
// equal timestamps in scheduling order (seq), which makes every run a
// single schedule per seed. An installed Explorer turns that one
// schedule into a family: whenever two or more events are tied at the
// calendar minimum, the explorer chooses which fires next. Everything
// else — timestamps, the engine's random stream, process semantics — is
// untouched, so a run remains a pure function of (program, seed,
// choice sequence), which is what makes explored schedules replayable
// and shrinkable.
//
// With no explorer installed the engine takes none of these paths: the
// default pop, the Sleep fast path and the process spawn sequence are
// bit-identical to the non-exploring engine.

// EventInfo describes one tied calendar event to an Explorer, in
// deterministic scheduling (seq) order.
type EventInfo struct {
	// Proc is the name of the process the event resumes, or "" for an
	// engine callback (message arrival, timer, ...).
	Proc string
}

// Explorer perturbs the engine's schedule. ChooseTie is called whenever
// n >= 2 events are tied at the current minimum timestamp; it returns
// the index (0..n-1) of the event to fire next, with index 0 being the
// event the non-exploring engine would have fired. The remaining events
// stay tied (joined by any new same-timestamp arrivals) and the engine
// asks again on the next pop.
//
// An explorer must be deterministic given its own construction-time
// inputs: the engine consults nothing else, so replaying a recorded
// choice sequence reproduces the run bit-identically.
type Explorer interface {
	ChooseTie(ties []EventInfo) int
}

// SetExplorer installs (or, with nil, removes) the engine's schedule
// explorer. It must be called before Run.
func (e *Engine) SetExplorer(x Explorer) {
	if e.running {
		panic("sim: SetExplorer after Run")
	}
	e.x = x
}

// chooseTie is the exploring step before a pop: when several events are
// tied at the minimum timestamp the explorer picks one, whose key moves
// to the minimum position. The others keep their keys — hence their
// sequence numbers and their relative default order — for the next
// decision.
func (e *Engine) chooseTie() {
	c := &e.cal
	ties := c.ties()
	last := len(ties) - 1
	if last == 0 {
		return
	}
	infos := e.tieInfos[:0]
	for i := last; i >= 0; i-- { // seq order
		info := EventInfo{}
		if p := c.slab[ties[i].slot].proc; p != nil {
			info.Proc = p.name
		}
		infos = append(infos, info)
	}
	e.tieInfos = infos[:0]
	k := e.x.ChooseTie(infos)
	if k < 0 || k > last {
		panic("sim: Explorer.ChooseTie returned an out-of-range index")
	}
	chosen := ties[last-k]
	copy(ties[last-k:], ties[last-k+1:])
	ties[last] = chosen
}

// ErrPanic is returned by Run when, under an installed Explorer, a
// simulated process or engine callback panicked. Outside exploration a
// panic propagates as usual; during exploration a panic is a finding —
// an assertion the explored schedule violated — so the engine converts
// it into a run failure that the model checker can record, shrink and
// replay.
type ErrPanic struct {
	At   Time
	Proc string // panicking process name; "" for an engine callback
	Msg  string // the panic value, rendered
}

func (e *ErrPanic) Error() string {
	who := e.Proc
	if who == "" {
		who = "engine callback"
	}
	return "sim: panic at " + e.At.String() + " in " + who + ": " + e.Msg
}

// explorePanic records the first panic observed under exploration and
// stops the run. Later panics (possible while the corrupted simulation
// unwinds) keep the first message, which is the root cause.
func (e *Engine) explorePanic(proc string, r any) {
	if e.panicErr == nil {
		e.panicErr = &ErrPanic{At: e.now, Proc: proc, Msg: renderPanic(r)}
	}
	e.stopped = true
}

func renderPanic(r any) string { return fmt.Sprint(r) }

// runEventExplored fires one callback event with panic capture.
func (e *Engine) runEventExplored(ev payload) {
	defer func() {
		if r := recover(); r != nil {
			e.explorePanic("", r)
		}
	}()
	ev.fn(ev.arg)
}
