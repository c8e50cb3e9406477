package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// procState is how a process last parked, or that it is done; a Step
// answers stateRunning for a process that is to run on.
type procState int8

const (
	stateRunning   procState = iota
	stateBlocked             // parked, waiting on a signal; no event scheduled
	stateScheduled           // parked, a resume event is in the calendar
	stateDone
)

// maxTime is past every event: the minimum of an empty calendar.
const maxTime = Time(math.MaxInt64)

// Engine is a deterministic discrete-event simulator: one calendar, one
// clock, one random stream. The zero value is not usable; create one with
// NewEngine.
//
// All methods must be called either from the goroutine that calls Run
// (for setup and engine callbacks) or from a simulated process's own body
// while that process is the running process; the engine enforces the
// one-runnable-process-at-a-time discipline itself (a process is a
// coroutine resumed by Run or by another process that then waits for it,
// so at most one of them executes at any moment by construction).
type Engine struct {
	now Time
	seq uint64
	cal calendar

	// Work counts behind Counters.
	events, switches, coroswitches, hops, sleepFast uint64

	rng    *rand.Rand
	nextID int
	procs  map[int]*Proc
	liveFG int // live non-daemon processes

	// next is the hand-over slot: whoever finds the next process to run
	// (a parking process, or the resumer of one that finished) leaves it
	// here for the dispatch loop; nil means the run is over.
	next *Proc

	stopped bool // Stop was called
	running bool

	// Exploration state (explore.go); all nil/empty unless SetExplorer
	// installed a schedule explorer, so the default path is untouched.
	x        Explorer
	tieInfos []EventInfo // scratch for chooseTie
	panicErr *ErrPanic   // first panic captured under exploration
}

// NewEngine returns an engine whose random source is seeded with seed.
// Identical programs run on engines with identical seeds produce
// identical event traces.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[int]*Proc),
	}
}

// Counters are the engine's work counts. They are pure functions of
// (program, seed), so two builds of the simulator that claim the same
// behaviour must agree on them exactly. The engine keeps them as plain
// integers: read them after Run, or from simulation context.
type Counters struct {
	Events       uint64 // calendar events fired: process resumes and callbacks
	Switches     uint64 // process switches: a process other than the previous one starts running
	Coroswitches uint64 // coroutine switches paid for them: every resume of a process, every yield back
	Hops         uint64 // resume events a Stepper consumed in engine context, the process not entered
	SleepFast    uint64 // Sleeps that advanced the clock in place, with no event
	MaxPending   uint64 // most events pending on the calendar at once
}

// Counters reports the work counts so far.
func (e *Engine) Counters() Counters {
	return Counters{
		Events:       e.events,
		Switches:     e.switches,
		Coroswitches: e.coroswitches,
		Hops:         e.hops,
		SleepFast:    e.sleepFast,
		MaxPending:   uint64(e.cal.peak),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. Simulation code
// must use it (never math/rand's global functions or wall-clock entropy)
// so runs stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// clamp bounds at to the present: the past is not addressable.
func (e *Engine) clamp(at Time) Time {
	if at < e.now {
		return e.now
	}
	return at
}

// scheduleResume inserts a resume event for p at absolute time at.
func (e *Engine) scheduleResume(at Time, p *Proc) {
	e.seq++
	e.cal.push(e.clamp(at), e.seq, payload{proc: p})
}

// scheduleFn inserts a callback event at absolute time at.
func (e *Engine) scheduleFn(at Time, fn func(any), arg any) {
	e.seq++
	e.cal.push(e.clamp(at), e.seq, payload{fn: fn, arg: arg})
}

// At schedules fn to run in engine context at absolute virtual time at.
// fn must not block on simulation primitives; it may schedule further
// events, signal conditions, and spawn processes.
func (e *Engine) At(at Time, fn func()) { e.scheduleFn(at, callFunc0, fn) }

// After schedules fn to run in engine context d from now.
func (e *Engine) After(d Duration, fn func()) { e.scheduleFn(e.now.Add(d), callFunc0, fn) }

// AtArg schedules fn(arg) at absolute virtual time at. Unlike At it does
// not force a closure: callers on allocation-sensitive paths keep one fn
// per receiver and thread the per-event state through arg (boxing a
// pointer into any does not allocate).
func (e *Engine) AtArg(at Time, fn func(any), arg any) { e.scheduleFn(at, fn, arg) }

// AfterArg schedules fn(arg) d from now.
func (e *Engine) AfterArg(d Duration, fn func(any), arg any) {
	e.scheduleFn(e.now.Add(d), fn, arg)
}

// Spawn creates a process named name running fn and schedules it to
// start at the current virtual time. The process counts toward Run's
// completion condition: Run returns once every non-daemon process has
// finished.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon creates a process that does not keep Run alive: like a
// daemon thread, it is abandoned once all non-daemon processes finish.
// DSM server threads, pollers and timers are daemons.
func (e *Engine) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Engine) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	e.nextID++
	p := &Proc{
		e:      e,
		id:     e.nextID,
		name:   name,
		daemon: daemon,
		fn:     fn,
		state:  stateScheduled,
	}
	e.procs[p.id] = p
	if !daemon {
		e.liveFG++
	}
	e.scheduleResume(e.now, p)
	return p
}

// finish retires the process. It runs inside the process's coroutine as
// the last thing its body does (normally or, under exploration, from a
// recovered panic); the coroutine then switches back to whoever resumed
// it, who — seeing stateDone — takes the carrier back and dispatches the
// next event.
func (p *Proc) finish() {
	p.state = stateDone
	p.e.coroswitches++
	delete(p.e.procs, p.id)
	if !p.daemon {
		p.e.liveFG--
	}
}

// nextProc advances the engine on the calling goroutine or coroutine: it
// pops and fires events — running engine callbacks inline, and the Steps
// of a process that has a stepper (hop) — until it reaches the resume of
// a process that is to run, returned for the dispatch loop to switch to,
// or an end condition (Stop called, the last non-daemon process finished,
// or no event left), signalled by returning nil.
//
// park calls it from inside the process giving up the processor, so that
// callbacks between two resumes — and a resume that turns out to be the
// parker's own — cost no coroutine switch at all; dispatch calls it when
// the process it resumed finished instead of parking.
func (e *Engine) nextProc() *Proc {
	for {
		if e.stopped || e.liveFG == 0 || e.cal.n == 0 {
			return nil
		}
		if e.x != nil {
			e.chooseTie()
		}
		var ev payload
		e.now, ev = e.cal.pop()
		e.events++
		switch {
		case ev.proc != nil:
			p := ev.proc
			if p.stepper != nil && !e.hop(p) {
				continue
			}
			return p
		case e.x != nil:
			e.runEventExplored(ev)
		default:
			ev.fn(ev.arg)
		}
	}
}

// dispatch is the engine's one dispatch loop: resume the process in the
// hand-over slot until the slot holds nil (the run is over) or a process
// that is driving. Run runs it at the bottom of the resume chain; a
// parking process runs it from inside park, as the driver of its
// successor, so that control reaches the successor in one coroswitch
// instead of two through Run, and comes back in one when the successor
// parks with the driver's own resume next. A driving process waits in its
// resume call further down the chain and cannot be resumed again: it is
// reached by yielding toward it, each driver in between finding it in the
// slot, leaving its loop and yielding once more. Every resume onto the
// chain pays for at most that one yield off it, so no schedule costs more
// than a lone driver's two coroswitches per process switch.
//
// When resume returns, the process has either parked — after dispatching
// up to its successor, left in the slot — or finished and yielded from
// the end of its body. Whoever called resume — never the coroutine
// itself — then returns its carrier to the idle list, because only here,
// after resume has come back, is the coroutine known to be at rest
// (released from inside, a second engine could resume it mid-yield).
func (e *Engine) dispatch() {
	for p := e.next; p != nil && !p.driving; p = e.next {
		c := p.c
		if c == nil { // first resume: the process takes a carrier only now
			c = takeCarrier()
			c.p, p.c = p, c
		}
		e.switches++
		e.coroswitches++
		alive := c.resume()
		if p.state == stateDone {
			if alive {
				c.release()
			}
			e.next = e.nextProc()
		}
	}
}

// BlockedProc names one process stuck in a deadlock, together with the
// label of the signal (or signal-derived primitive) it parked on — the
// wait reason that makes a deadlock report, and in particular a shrunk
// exploration repro, readable.
type BlockedProc struct {
	Name    string
	Waiting string // label of the primitive the process parked on; "" if unlabeled
}

func (b BlockedProc) String() string {
	if b.Waiting == "" {
		return b.Name
	}
	return b.Name + " (waiting on " + b.Waiting + ")"
}

// ErrDeadlock is returned by Run when no events remain but unfinished
// non-daemon processes are still blocked.
type ErrDeadlock struct {
	At      Time
	Blocked []string      // names of the blocked processes, sorted
	Waits   []BlockedProc // the same processes with their wait reasons
}

func (e *ErrDeadlock) Error() string {
	if len(e.Waits) > 0 {
		return fmt.Sprintf("sim: deadlock at %v: blocked processes %v", e.At, e.Waits)
	}
	return fmt.Sprintf("sim: deadlock at %v: blocked processes %v", e.At, e.Blocked)
}

// Run drives the simulation until every non-daemon process has finished,
// Stop is called, or no progress is possible. It returns *ErrDeadlock if
// non-daemon processes remain blocked with an empty calendar, and nil
// otherwise. Run must be called exactly once, from the goroutine that
// created the engine.
//
// It is the bottom of the resume chain (dispatch): when the hand-over
// comes back to it with nothing to resume, every process is parked in a
// yield and no one is driving.
func (e *Engine) Run() error {
	if e.running {
		panic("sim: Engine.Run called twice")
	}
	e.running = true
	defer e.reapProcs()
	e.next = e.nextProc()
	e.dispatch()
	if e.stopped {
		if e.panicErr != nil {
			return e.panicErr
		}
		return nil
	}
	if e.liveFG == 0 {
		return nil
	}
	return e.deadlockError()
}

// reapProcs runs when Run returns (or unwinds): every process still
// parked at that point (abandoned daemons and, after Stop or a
// deadlock, blocked processes) is resumed one last time marked done,
// which makes park raise the reaped sentinel instead of returning. The
// panic unwinds the process's stack — its deferred functions run — and
// is recovered at the top of the carrier (Proc.run), which goes back to
// the idle list intact. A suspended coroutine cannot just be dropped: it
// is a parked goroutine that pins the engine's heap, and programs that
// run many simulations would accumulate them without bound. A process
// that never ran holds no carrier and needs no reaping.
func (e *Engine) reapProcs() {
	for _, p := range e.procs { //detlint:ok post-run teardown, order invisible
		if c := p.c; c != nil {
			p.state = stateDone
			if c.resume() {
				c.release()
			}
		}
	}
}

func (e *Engine) deadlockError() error {
	var waits []BlockedProc
	for _, p := range e.procs { //detlint:ok sorted below
		if !p.daemon && p.state == stateBlocked {
			waits = append(waits, BlockedProc{Name: p.name, Waiting: p.waitOn.label})
		}
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i].Name < waits[j].Name })
	blocked := make([]string, len(waits))
	for i, w := range waits {
		blocked[i] = w.Name
	}
	return &ErrDeadlock{At: e.now, Blocked: blocked, Waits: waits}
}

// Stop makes Run return after the current event completes. It may be
// called from process context or an engine callback.
func (e *Engine) Stop() { e.stopped = true }

// Proc is a simulated process (thread). All Proc methods must be called
// from the process's own body while it is the running process.
type Proc struct {
	e      *Engine
	id     int
	name   string
	daemon bool
	fn     func(*Proc)
	c      *carrier // coroutine hosting the body; nil until the first resume
	state  procState

	// driving marks a parked process that is inside dispatch: it resumed
	// its successor itself and waits in that resume call.
	driving bool

	// waitOn is the signal the process most recently parked on; consulted
	// only while state == stateBlocked, for deadlock reporting.
	waitOn *signal

	// stepper, while not nil, takes the process's resume events in engine
	// context in the process's stead (Drive, stepper.go).
	stepper Stepper
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// reaped is the sentinel park panics with when reapProcs resumes a
// process after Run is over.
type reaped struct{}

// run is the process's life inside its carrier: the body, then finish.
// It reports whether the carrier may host another process afterwards.
// The reaped sentinel is recovered here and leaves the carrier reusable.
// Under exploration a panic is a finding, not a crash: it is recorded,
// the run stops, and the carrier it unwound retires. Any other panic is
// left alone: iter.Pull catches it at the coroutine's top and re-raises
// the same value from the resume call of whoever was driving, and so on
// down the resume chain — unwinding each driving process on the way, its
// deferred functions run — until it surfaces out of Engine.Run on the
// caller's goroutine.
func (p *Proc) run() (ok bool) {
	defer func() {
		switch {
		case ok:
		case p.state == stateDone: // resumed by reapProcs
			if r := recover(); r != (reaped{}) {
				panic(r)
			}
			ok = true
		case p.e.x != nil:
			p.e.explorePanic(p.name, recover())
			p.finish()
		}
	}()
	p.fn(p)
	p.finish()
	return true
}

// park gives up the processor and blocks until resumed. The caller must
// have arranged a wakeup (calendar event or signal registration) before
// calling park, or the process deadlocks.
//
// The parking process dispatches events itself until the next process
// switch (nextProc). Two outcomes avoid a coroutine switch entirely: the
// next resume may be this process's own (sleep across engine callbacks),
// and engine callbacks between resumes run inline. Otherwise the
// successor — or nil, when the run is over — goes into the engine's
// hand-over slot and the process drives it (dispatch) until the slot
// holds its own resume, or someone it has to yield toward: a driver
// further down the chain, or Run when the run is over.
func (p *Proc) park(st procState) {
	if p.state == stateDone {
		panic(reaped{}) // a deferred function blocked while being reaped
	}
	e := p.e
	p.state = st
	next := e.nextProc()
	if next == p {
		return
	}
	e.next = next
	p.driving = true
	e.dispatch()
	p.driving = false
	if e.next == p { // back from the processes p drove
		e.switches++
		return
	}
	e.coroswitches++
	p.c.yield() // until dispatch resumes p, which counts the switch
	if p.state == stateDone {
		panic(reaped{}) // run over: unwind instead of resuming
	}
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero time. Sleep(0) yields: other events at the current timestamp
// run before the process continues.
//
// Fast path: when no calendar event precedes the wakeup, the resume
// record this Sleep would push is exactly the event the engine would pop
// next. The process then advances the clock itself and keeps running —
// same execution order, no calendar traffic, and no coroutine switch.
// Events already scheduled for the wakeup instant — the current one
// included, for Sleep(0) — have smaller sequence numbers than the
// would-be resume, so the fast path requires the calendar minimum to lie
// strictly after the wakeup time.
func (p *Proc) Sleep(d Duration) {
	if e := p.e; !e.sleepInPlace(d) {
		e.scheduleResume(e.now.Add(max(d, 0)), p)
		p.park(stateScheduled)
	}
}

// sleepInPlace is Sleep's fast path, shared with a Stepper's SleepFor: it
// reports whether the clock advanced without an event. (It is small
// enough to inline, so the fast path costs Sleep no call.)
func (e *Engine) sleepInPlace(d Duration) bool {
	at := e.now.Add(max(d, 0))
	if e.stopped || at >= e.cal.minAt() {
		return false
	}
	e.now = at
	e.sleepFast++
	return true
}
