package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

type procState int8

const (
	stateRunning   procState = iota
	stateBlocked             // parked, waiting on a Signal; no event scheduled
	stateScheduled           // parked, a resume event is in the calendar
	stateDone
)

// maxTime is the open horizon: no event is ever scheduled at or past it,
// so a shard whose horizon is maxTime (the single-shard engine) executes
// its calendar unconditionally.
const maxTime = Time(math.MaxInt64)

// Engine is a deterministic discrete-event simulator. The zero value is not
// usable; create one with NewEngine (single calendar) or NewShardedEngine
// (one calendar shard per simulated host, executable in parallel).
//
// In the single-shard engine all methods must be called either from the
// goroutine that calls Run (for setup and engine callbacks) or from a
// simulated process's own body while that process is the running
// process; the engine enforces the one-runnable-process-at-a-time
// discipline itself (a process is a coroutine the Run goroutine resumes,
// so at most one of them executes at any moment by construction). In a
// sharded engine the same discipline holds per shard: each shard runs at
// most one of its processes at a time, and all simulation state a
// shard's processes and callbacks touch must belong to that shard
// (cross-shard effects travel through Shard.Post, which enforces the
// lookahead contract). Engine-level convenience methods
// (Spawn, At, Now, ...) address shard 0.
type Engine struct {
	shards []*Shard
	single bool // exactly one shard: the classic sequential engine

	// lookahead is the minimum cross-shard scheduling distance: every
	// Shard.Post to another shard must land at least this far after the
	// posting shard's current time. It is what makes a conservative
	// window safe (see Run). Declared by the transport via SetLookahead.
	lookahead Duration

	workers   int // goroutines executing shard windows; 1 = serial
	maxActive int // high-water mark of shards active in one window
	windows   uint64

	// finalNow is the sharded engine's answer to Now(): the current
	// window floor while running, and the virtual time the last
	// non-daemon process finished once Run returns. (Each shard keeps
	// its own clock; a single global "now" does not exist mid-window.)
	finalNow Time

	// merge is the scratch buffer window barriers collect outboxes into.
	merge []xev

	// Persistent window-worker pool (parallel.go). Workers park on
	// parWork between windows; parActive/parNext describe the current
	// window's shard list and steal cursor. Lazily started the first
	// time a window wants more than one goroutine, torn down when
	// runSharded returns — spawning fresh goroutines per window would
	// cost an allocation and a scheduler hop each, tens of thousands of
	// times per run.
	parWork   chan struct{}
	parActive []*Shard
	parNext   atomic.Int64
	parWG     sync.WaitGroup
	parPanic  atomic.Pointer[any] // first panic out of a worker's window
	poolSize  int

	stopped atomic.Bool // Stop was called; may be set from any shard
	running bool

	// Exploration state (explore.go); all nil/empty unless SetExplorer
	// installed a schedule explorer, so the default path is untouched.
	// Exploration requires the single-shard engine: a strategy must see
	// one global event order.
	x        Explorer
	yieldSeq map[uint64]struct{} // seqs of resumes scheduled by Yield/Sleep(0)
	tieInfos []EventInfo         // scratch for chooseTie
	panicErr *ErrPanic           // first panic captured under exploration
}

// Shard owns one slice of the simulation: a calendar, a clock, a random
// stream, and the processes bound to it. The single-shard engine is
// exactly one Shard driven with an open horizon; the sharded engine
// executes many Shards inside conservative windows (see Engine.Run). A
// Shard's methods follow the same calling discipline as the classic
// engine, per shard: at most one of its processes runs at a time, and
// only that process (or the shard's own engine callbacks) may touch the
// shard.
type Shard struct {
	e  *Engine
	id int

	now Time
	seq uint64
	cal calendar

	// Work counts behind Engine.Counters.
	events, switches, sleepFast uint64

	rng    *rand.Rand
	nextID int
	procs  map[int]*Proc
	liveFG int // live non-daemon processes on this shard

	// next is the hand-over slot: a process that parks dispatches events
	// itself (park) and leaves the successor it found here for the
	// driver loop (runWindow) to resume; nil means the window is over.
	next *Proc

	// horizon is the exclusive upper bound on executable event times for
	// the current window; maxTime on the single-shard engine. A shard
	// never pops an event at or past its horizon, and the Sleep fast
	// path never advances the clock across it.
	horizon Time

	// fgHalt makes the dispatch loop stop as soon as the shard's last
	// non-daemon process finishes — the classic single-shard termination
	// rule. Sharded engines leave it false: a shard with no foreground
	// processes of its own (a pure server host) must keep serving until
	// the cluster-wide count drains, which the window loop checks at
	// barriers.
	fgHalt bool

	// fgEnd is the shard time at which liveFG last reached zero; the
	// sharded engine's final Now() is the maximum over shards.
	fgEnd Time

	// outbox buffers cross-shard events produced during the current
	// window; the barrier merges all outboxes in (at, src, seq) order.
	outbox []xev
	xseq   uint64
}

// xev is one cross-shard event in flight between windows.
type xev struct {
	at   Time
	sent Time   // posting shard's clock at Post time
	src  int    // posting shard id
	seq  uint64 // posting shard's outbox sequence
	dst  *Shard
	fn   func(any)
	arg  any
}

// NewEngine returns a single-shard engine whose random source is seeded
// with seed. Identical programs run on engines with identical seeds
// produce identical event traces.
func NewEngine(seed int64) *Engine {
	return newEngine(seed, 1)
}

// NewShardedEngine returns an engine with shards calendar shards
// (shards >= 2: shard 0 for global services plus one per simulated
// host, by convention). Each shard draws from its own random stream
// derived from (seed, shard id), so a sharded run is a pure function of
// (program, seed, shard count) regardless of how many worker goroutines
// execute the windows — Run produces identical results at every worker
// count, which is what makes the parallel engine testable against its
// own serial execution.
func NewShardedEngine(seed int64, shards int) *Engine {
	if shards < 2 {
		panic("sim: NewShardedEngine needs at least 2 shards (use NewEngine for one)")
	}
	return newEngine(seed, shards)
}

func newEngine(seed int64, shards int) *Engine {
	e := &Engine{
		shards:  make([]*Shard, shards),
		single:  shards == 1,
		workers: runtime.GOMAXPROCS(0),
	}
	for i := range e.shards {
		e.shards[i] = &Shard{
			e:       e,
			id:      i,
			rng:     rand.New(rand.NewSource(shardSeed(seed, i))),
			procs:   make(map[int]*Proc),
			horizon: maxTime,
			fgHalt:  shards == 1,
		}
	}
	return e
}

// shardSeed derives shard i's random seed. Shard 0 uses the engine seed
// itself, so the single-shard engine's stream is exactly the historical
// one; higher shards mix the id through a splitmix64 round to decorrelate
// neighboring seeds.
func shardSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// NumShards returns the number of calendar shards (1 for NewEngine).
func (e *Engine) NumShards() int { return len(e.shards) }

// Shard returns shard i. Shard 0 is the engine's default shard: the
// engine-level Spawn/At/Now methods address it.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// SetLookahead declares the minimum cross-shard latency: every
// Shard.Post to another shard lands at least d after the posting shard's
// clock. The transport that owns the latency floor calls this before
// Run; the sharded Run panics without a positive lookahead, because the
// conservative window would be empty.
func (e *Engine) SetLookahead(d Duration) { e.lookahead = d }

// Lookahead returns the declared cross-shard latency floor.
func (e *Engine) Lookahead() Duration { return e.lookahead }

// SetParWorkers bounds the number of goroutines that execute shard
// windows concurrently (minimum 1; the default is GOMAXPROCS). The
// simulation's outcome is identical at every width.
func (e *Engine) SetParWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// ParWorkers returns the window executor's width.
func (e *Engine) ParWorkers() int { return e.workers }

// MaxShardsActive reports the high-water mark of shards that were
// runnable in a single window — the run's effective parallelism bound.
func (e *Engine) MaxShardsActive() int { return e.maxActive }

// Windows reports how many conservative windows the sharded run executed.
func (e *Engine) Windows() uint64 { return e.windows }

// Counters are the engine's work counts, summed over shards. They are
// pure functions of (program, seed, shard count), so two builds of the
// simulator that claim the same behaviour must agree on them exactly.
// The shards keep them as plain integers: read them after Run, or from
// simulation context on the single-shard engine.
type Counters struct {
	Events     uint64 // calendar events fired: process resumes and callbacks
	Switches   uint64 // coroutine switches: a driver loop resuming a process
	SleepFast  uint64 // Sleeps that advanced the clock in place, with no event
	MaxPending uint64 // most events pending on one shard's calendar at once
}

// Counters reports the work counts so far.
func (e *Engine) Counters() Counters {
	var c Counters
	for _, s := range e.shards {
		c.Events += s.events
		c.Switches += s.switches
		c.SleepFast += s.sleepFast
		c.MaxPending = max(c.MaxPending, uint64(s.cal.peak))
	}
	return c
}

// Now returns the current virtual time. On a sharded engine the shards'
// clocks advance independently inside a window, so Now reports the
// current window floor while running and the finish time of the last
// non-daemon process after Run; simulation code on a shard uses
// Proc.Now or Shard.Now.
func (e *Engine) Now() Time {
	if e.single {
		return e.shards[0].now
	}
	return e.finalNow
}

// Rand returns shard 0's deterministic random source. Simulation code
// must use the owning shard's source (never math/rand's global functions
// or wall-clock entropy) so runs stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.shards[0].rng }

// ID returns the shard's index.
func (s *Shard) ID() int { return s.id }

// Engine returns the owning engine.
func (s *Shard) Engine() *Engine { return s.e }

// Now returns the shard's current virtual time.
func (s *Shard) Now() Time { return s.now }

// Rand returns the shard's deterministic random source.
func (s *Shard) Rand() *rand.Rand { return s.rng }

// clamp bounds at to the present: the past is not addressable.
func (s *Shard) clamp(at Time) Time {
	if at < s.now {
		return s.now
	}
	return at
}

// scheduleResume inserts a resume event for p at absolute time at.
func (s *Shard) scheduleResume(at Time, p *Proc) {
	s.seq++
	s.cal.push(s.clamp(at), s.seq, payload{proc: p})
}

// scheduleFn inserts a callback event at absolute time at.
func (s *Shard) scheduleFn(at Time, fn func(any), arg any) {
	s.seq++
	s.cal.push(s.clamp(at), s.seq, payload{fn: fn, arg: arg})
}

// At schedules fn to run in engine context at absolute virtual time at
// on shard 0. fn must not block on simulation primitives; it may
// schedule further events, signal conditions, and spawn processes.
func (e *Engine) At(at Time, fn func()) { e.shards[0].At(at, fn) }

// After schedules fn to run in engine context d from now on shard 0.
func (e *Engine) After(d Duration, fn func()) { e.shards[0].After(d, fn) }

// AtArg schedules fn(arg) on shard 0 at absolute virtual time at.
func (e *Engine) AtArg(at Time, fn func(any), arg any) { e.shards[0].AtArg(at, fn, arg) }

// AfterArg schedules fn(arg) on shard 0, d from now.
func (e *Engine) AfterArg(d Duration, fn func(any), arg any) { e.shards[0].AfterArg(d, fn, arg) }

// At schedules fn to run in this shard's engine context at absolute
// virtual time at. fn must not block on simulation primitives; it may
// schedule further events, signal conditions, and spawn processes on
// this shard.
func (s *Shard) At(at Time, fn func()) { s.scheduleFn(at, callFunc0, fn) }

// After schedules fn to run in this shard's engine context d from now.
func (s *Shard) After(d Duration, fn func()) { s.scheduleFn(s.now.Add(d), callFunc0, fn) }

// AtArg schedules fn(arg) at absolute virtual time at. Unlike At it does
// not force a closure: callers on allocation-sensitive paths keep one fn
// per receiver and thread the per-event state through arg (boxing a
// pointer into any does not allocate).
func (s *Shard) AtArg(at Time, fn func(any), arg any) { s.scheduleFn(at, fn, arg) }

// AfterArg schedules fn(arg) d from now.
func (s *Shard) AfterArg(d Duration, fn func(any), arg any) {
	s.scheduleFn(s.now.Add(d), fn, arg)
}

// Post schedules fn(arg) at absolute time at on shard dst, which may be
// a different shard. Same-shard posts are ordinary AtArg scheduling. A
// cross-shard post is buffered in the posting shard's outbox and merged
// into dst's calendar at the next window barrier, so it must respect the
// engine's lookahead: at >= the posting shard's current time plus the
// declared cross-shard latency floor. The barrier panics on a violation
// — a transport scheduling below its own declared floor is a
// correctness bug, not a tolerable slowdown.
func (s *Shard) Post(dst *Shard, at Time, fn func(any), arg any) {
	if dst == s || s.e.single {
		dst.scheduleFn(at, fn, arg)
		return
	}
	s.xseq++
	s.outbox = append(s.outbox, xev{at: at, sent: s.now, src: s.id, seq: s.xseq, dst: dst, fn: fn, arg: arg})
}

// Spawn creates a process named name running fn on shard 0 and
// schedules it to start at the current virtual time. The process counts
// toward Run's completion condition: Run returns once every non-daemon
// process (across all shards) has finished.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.shards[0].spawn(name, fn, false)
}

// SpawnDaemon creates a process on shard 0 that does not keep Run
// alive: like a daemon thread, it is abandoned once all non-daemon
// processes finish. DSM server threads, pollers and timers are daemons.
func (e *Engine) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return e.shards[0].spawn(name, fn, true)
}

// Spawn creates a process on this shard; see Engine.Spawn.
func (s *Shard) Spawn(name string, fn func(*Proc)) *Proc {
	return s.spawn(name, fn, false)
}

// SpawnDaemon creates a daemon process on this shard; see
// Engine.SpawnDaemon.
func (s *Shard) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return s.spawn(name, fn, true)
}

func (s *Shard) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	s.nextID++
	p := &Proc{
		e:      s.e,
		sh:     s,
		id:     s.nextID,
		name:   name,
		daemon: daemon,
		fn:     fn,
		state:  stateScheduled,
	}
	s.procs[p.id] = p
	if !daemon {
		s.liveFG++
	}
	s.scheduleResume(s.now, p)
	return p
}

// finish retires the process. It runs inside the process's coroutine as
// the last thing its body does (normally or, under exploration, from a
// recovered panic); the coroutine then yields, and the driver — seeing
// stateDone — takes the carrier back and dispatches the next event.
func (p *Proc) finish() {
	s := p.sh
	p.state = stateDone
	delete(s.procs, p.id)
	if !p.daemon {
		s.liveFG--
		if s.liveFG == 0 {
			s.fgEnd = s.now
		}
	}
}

// nextProc advances the shard on the calling goroutine or coroutine: it
// pops and fires events below the horizon — running engine callbacks
// inline — until it reaches a process resume, returned for the driver
// to switch to, or an end condition (Stop called, the shard's
// foreground drained under fgHalt, or no event left below the horizon),
// signalled by returning nil.
//
// The driver loop (runWindow) calls it between processes; park calls it
// from inside the process giving up the processor, so that callbacks
// between two resumes — and a resume that turns out to be the parker's
// own — cost no coroutine switch at all.
func (s *Shard) nextProc() *Proc {
	e := s.e
	for {
		if e.stopped.Load() || (s.fgHalt && s.liveFG == 0) {
			return nil
		}
		if s.cal.minAt() >= s.horizon {
			return nil
		}
		if e.x != nil {
			e.chooseTie()
		}
		var ev payload
		s.now, ev = s.cal.pop()
		s.events++
		switch {
		case ev.proc != nil:
			if ev.proc.state == stateDone {
				continue
			}
			return ev.proc
		case e.x != nil:
			e.runEventExplored(ev)
		default:
			ev.fn(ev.arg)
		}
	}
}

// wake moves a blocked process into its shard's calendar at the shard's
// current time. It is a no-op if the process is already scheduled,
// running, or done. The caller must be executing on the process's own
// shard (Signals never span shards).
func (e *Engine) wake(p *Proc) {
	if p.state != stateBlocked {
		return
	}
	p.state = stateScheduled
	p.sh.scheduleResume(p.sh.now, p)
}

// runWindow is the shard's one dispatch loop: resume the next process's
// coroutine, wait for it to yield back, repeat until nextProc finds no
// more work below the horizon. On return every process of the shard is
// parked. It is the body of classic Run (horizon = maxTime) and of one
// shard's turn inside a conservative window; whichever goroutine calls
// it is the shard's driver for that window.
func (s *Shard) runWindow() {
	for p := s.nextProc(); p != nil; {
		p = s.switchTo(p)
	}
}

// switchTo runs p until it parks or finishes and returns the process to
// run after it. A parked process has already dispatched up to its
// successor and left it in the hand-over slot. A finished one has
// yielded from the end of its body: the driver — never the coroutine
// itself — returns its carrier to the idle list, because only here,
// after resume has come back, is the coroutine known to be at rest
// (released from inside, a second engine could resume it mid-yield).
func (s *Shard) switchTo(p *Proc) *Proc {
	c := p.c
	if c == nil { // first resume: the process takes a carrier only now
		c = takeCarrier()
		c.p, p.c = p, c
	}
	p.state = stateRunning
	s.switches++
	alive := c.resume()
	if p.state != stateDone {
		next := s.next
		s.next = nil
		return next
	}
	if alive {
		c.release()
	}
	return s.nextProc()
}

// BlockedProc names one process stuck in a deadlock, together with the
// label of the Signal (or Signal-derived primitive) it parked on — the
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
// non-daemon processes are still blocked. On a sharded engine the report
// spans every shard: a deadlock is a global condition (all calendars and
// outboxes empty), and each blocked process is listed with its wait
// label no matter which shard owns it.
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
// On a sharded engine Run executes conservative windows: each window
// spans [m, m+L) where m is the earliest pending event across all
// shards and L the declared lookahead. Within the window every shard
// executes its own events independently — in parallel across up to
// ParWorkers goroutines — because no cross-shard effect can land below
// the window horizon: Shard.Post guarantees a cross-shard event fires
// at least L after the posting shard's clock, which never trails m.
// Windows meet at barriers that merge the shards' outboxes in
// deterministic (at, shard, seq) order, so the run's outcome is a pure
// function of (program, seed, shard count), independent of worker
// count and goroutine scheduling.
func (e *Engine) Run() error {
	if e.running {
		panic("sim: Engine.Run called twice")
	}
	e.running = true
	defer e.reapProcs()
	if !e.single {
		return e.runSharded()
	}
	s := e.shards[0]
	s.runWindow()
	if e.stopped.Load() {
		if e.panicErr != nil {
			return e.panicErr
		}
		return nil
	}
	if s.liveFG == 0 {
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
	for _, s := range e.shards {
		for _, p := range s.procs { //detlint:ok post-run teardown, order invisible
			if c := p.c; c != nil {
				p.state = stateDone
				if c.resume() {
					c.release()
				}
			}
		}
	}
}

func (e *Engine) deadlockError() error {
	var waits []BlockedProc
	for _, s := range e.shards {
		for _, p := range s.procs { //detlint:ok sorted below
			if !p.daemon && p.state == stateBlocked {
				waits = append(waits, BlockedProc{Name: p.name, Waiting: p.waitLabel()})
			}
		}
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i].Name < waits[j].Name })
	blocked := make([]string, len(waits))
	for i, w := range waits {
		blocked[i] = w.Name
	}
	return &ErrDeadlock{At: e.Now(), Blocked: blocked, Waits: waits}
}

// Stop makes Run return after the current event completes — on a
// sharded engine, after every shard finishes its in-progress event and
// the window unwinds. It may be called from process context or an
// engine callback on any shard.
func (e *Engine) Stop() { e.stopped.Store(true) }

// Proc is a simulated process (thread). All Proc methods must be called
// from the process's own body while it is the running process.
type Proc struct {
	e      *Engine
	sh     *Shard
	id     int
	name   string
	daemon bool
	fn     func(*Proc)
	c      *carrier // coroutine hosting the body; nil until the first resume
	state  procState

	// waitOn is the Signal the process most recently parked on; consulted
	// only while state == stateBlocked, for deadlock reporting.
	waitOn *Signal
}

// waitLabel returns the label of the primitive the process is blocked
// on, for deadlock reports.
func (p *Proc) waitLabel() string {
	if p.waitOn == nil {
		return ""
	}
	return p.waitOn.label
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Shard returns the calendar shard that owns this process.
func (p *Proc) Shard() *Shard { return p.sh }

// Now returns the current virtual time on the process's shard.
func (p *Proc) Now() Time { return p.sh.now }

// reaped is the sentinel park panics with when reapProcs resumes a
// process after Run is over.
type reaped struct{}

// run is the process's life inside its carrier: the body, then finish.
// It reports whether the carrier may host another process afterwards.
// The reaped sentinel is recovered here and leaves the carrier reusable.
// Under exploration a panic is a finding, not a crash: it is recorded,
// the run stops, and the carrier it unwound retires. Any other panic is
// left alone: iter.Pull catches it at the coroutine's top and re-raises
// the same value from the driver's resume, so it surfaces out of
// Engine.Run on the caller's goroutine.
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
// have arranged a wakeup (calendar event or Signal registration) before
// calling park, or the process deadlocks.
//
// The parking process dispatches events itself until the next process
// switch (nextProc). Two outcomes avoid a coroutine switch entirely: the
// next resume may be this process's own (sleep across engine callbacks),
// and engine callbacks between resumes run inline. Otherwise the
// successor — or nil, when the window is over — goes into the shard's
// hand-over slot and the process yields to the driver loop.
func (p *Proc) park(st procState) {
	if p.state == stateDone {
		panic(reaped{}) // a deferred function blocked while being reaped
	}
	s := p.sh
	p.state = st
	next := s.nextProc()
	if next == p {
		p.state = stateRunning
		return
	}
	s.next = next
	p.c.yield()
	if p.state == stateDone {
		panic(reaped{}) // run over: unwind instead of resuming
	}
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero time. Sleep(0) yields: other events at the current timestamp
// run before the process continues.
//
// Fast path: when no calendar event precedes the wakeup and the wakeup
// lies inside the shard's window, the resume record this Sleep would
// push is exactly the event the engine would pop next. The process then
// advances the clock itself and keeps running — same execution order, no
// calendar traffic, and no coroutine switch. Events already scheduled for
// the wakeup instant — the current one included, for Sleep(0) — have
// smaller sequence numbers than the would-be resume, so the fast path
// requires the calendar minimum to lie strictly after the wakeup time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sh
	e := p.e
	at := s.now.Add(d)
	if !e.stopped.Load() && at < s.horizon && at < s.cal.minAt() {
		s.now = at
		s.sleepFast++
		return
	}
	s.scheduleResume(at, p)
	if d == 0 && e.x != nil {
		e.yieldSeq[s.seq] = struct{}{} // tag the resume as a yield for the explorer
	}
	p.park(stateScheduled)
}

// Yield lets every other event scheduled for the current instant run
// before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }
