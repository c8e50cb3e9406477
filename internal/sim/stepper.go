package sim

// Engine-side wait sequences. Much of what a simulated process does is a
// fixed run of waits with a little bookkeeping in between — charge a cost,
// take a message or enlist for one, charge another cost — and a process
// switched to only to reach its next Sleep or Wait pays a coroutine switch
// for each. A Stepper is such a run as a state machine: while a process
// has one (Drive), the engine, on popping the process's resume event,
// calls Step itself instead of switching to the process.
//
// The replacement is exact. A Step runs in engine context at the resume
// event's (at, seq) position, where the process would have run the same
// statements: every event it schedules gets the same sequence number, the
// random stream is drawn in the same order, a sleep takes the same fast
// path or pushes the same resume. Counters().Events, SleepFast and
// MaxPending cannot move — only the switches go — and
// TestStepperIsTheProcess holds the primitive to that. For it to hold, a
// Step may do what an engine callback may (TryGet, Enlist, Set and Pulse,
// schedule callbacks, mutate host state) and nothing that parks: no
// Sleep, Wait, Get, Lock or Drive.

// Action is what a Step asks of the engine next.
type Action int8

const (
	// Run ends the sequence: the stepper is cleared and the process runs
	// on from its Drive call.
	Run Action = iota
	// SleepFor does what Proc.Sleep does with the returned duration — the
	// clock advances in place when no event precedes the wakeup, else the
	// process is scheduled — and then steps again.
	SleepFor
	// Block leaves the process blocked on the signal, Event or Queue this
	// Step enlisted it on (Enlist, its last act), to be stepped again when
	// that wakes it. As after Wait, the wakeup proves nothing: the next
	// Step re-checks, and enlists again — at the tail — if it was spurious.
	Block
)

// Stepper is a wait sequence as a state machine. Step performs the
// sequence's next piece of bookkeeping and returns the wait that follows
// it; the duration is read for SleepFor only.
type Stepper interface {
	Step() (Action, Duration)
}

// Drive runs s as the process's next statements and returns when a Step
// returns Run. The first Step runs here, in the process; once one has to
// wait for an event, the process parks and the engine takes every later
// Step at that event, switching back only for Run. Steppers are objects
// that exist anyway (an endpoint, a thread), so Drive allocates nothing.
func (p *Proc) Drive(s Stepper) {
	p.stepper = s
	if st := p.e.step(p); st != stateRunning {
		p.park(st)
	}
}

// step runs p's stepper from the present position until it hands the
// processor to p (stateRunning) or has parked p: with a resume event in
// the calendar (stateScheduled) or enlisted on a signal (stateBlocked).
func (e *Engine) step(p *Proc) procState {
	for {
		switch act, d := p.stepper.Step(); act {
		case Run:
			p.stepper = nil
			return stateRunning
		case Block:
			return stateBlocked
		default:
			if !e.sleepInPlace(d) {
				e.scheduleResume(e.now.Add(max(d, 0)), p)
				return stateScheduled
			}
		}
	}
}

// hop fires p's resume event on behalf of its stepper and reports whether
// the sequence is over and p is to run.
func (e *Engine) hop(p *Proc) bool {
	if e.x != nil {
		p.state = e.stepExplored(p)
	} else {
		p.state = e.step(p)
	}
	if p.state == stateRunning {
		return true
	}
	e.hops++
	return false
}

// stepExplored is step with panic capture: under exploration a panic in a
// Step the engine runs is a finding that names p, as one in p's own body
// would be. p stays parked, its sequence broken, and is reaped by the run
// the finding stops.
func (e *Engine) stepExplored(p *Proc) (st procState) {
	defer func() {
		if r := recover(); r != nil {
			e.explorePanic(p.name, r)
			st = stateScheduled
		}
	}()
	return e.step(p)
}
