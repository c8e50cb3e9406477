package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The differential test of the Stepper primitive: a seeded random program
// runs twice, once as plain process code and once with segments of every
// process handed to Drive, and the two runs must be indistinguishable to
// everything but the switch counters.

type opKind uint8

const (
	// Waits.
	kSleep opKind = iota // Sleep(d): zero, equal and colliding durations included
	kWait                // signal.Wait: one wakeup, no predicate
	kGet                 // Queue.Get: re-waits while the queue is empty
	kLatch               // Event.wait: re-waits while the event is unset
	// Effects: everything an engine callback may do.
	kNote      // log only
	kPulse     // signal.Pulse
	kBroadcast // signal.Broadcast
	kPut       // Queue.Put
	kSet       // Event.Set
	kReset     // Event.Reset
	kAfter     // schedule a callback that notes, pulses and puts
	kRand      // draw from the engine's random stream
	kSpawn     // spawn a child process
	kStop      // Engine.Stop
)

type stepOp struct {
	kind opKind
	d    Duration
	k    int // which signal, queue or event
}

// segment is a stretch of a process's program; a driven one goes through
// Drive in the stepper run, effects included.
type segment struct {
	ops    []stepOp
	driven bool
}

type stepProgram struct {
	procs  [][]segment
	daemon []bool
	ticks  int // the ticker wakes every waiter this many times, then falls silent
	gap    Duration
}

const progObjects = 3 // signals, queues and events each

// genProgram draws a program: 2-8 processes of a few segments each, about
// as many waits as effects, durations from a handful of values so that
// wakeups collide.
func genProgram(rng *rand.Rand) stepProgram {
	durs := []Duration{0, 0, 1, 5, 5, 10, 10, 20, 35}
	prog := stepProgram{ticks: 5 + rng.Intn(20), gap: Duration(3 + rng.Intn(15))}
	n := 2 + rng.Intn(7)
	for i := 0; i < n; i++ {
		var segs []segment
		for s := 1 + rng.Intn(5); s > 0; s-- {
			seg := segment{driven: rng.Intn(4) > 0}
			for o := 1 + rng.Intn(12); o > 0; o-- {
				op := stepOp{d: durs[rng.Intn(len(durs))], k: rng.Intn(progObjects)}
				switch r := rng.Intn(100); {
				case r < 30:
					op.kind = kSleep
				case r < 38:
					op.kind = kWait
				case r < 46:
					op.kind = kGet
				case r < 52:
					op.kind = kLatch
				default:
					op.kind = kNote + opKind(rng.Intn(int(kSpawn-kNote)+1))
					if rng.Intn(200) == 0 {
						op.kind = kStop
					}
				}
				seg.ops = append(seg.ops, op)
			}
			segs = append(segs, seg)
		}
		prog.procs = append(prog.procs, segs)
		prog.daemon = append(prog.daemon, i > 0 && rng.Intn(4) == 0)
	}
	return prog
}

// world is one run of a program.
type world struct {
	e     *Engine
	sigs  []*signal
	qs    []*Queue[int]
	evs   []*Event
	log   []string
	ties  []string // what the explorer was offered, when there is one
	named int      // tied events the explorer was offered as a process's resume
}

// note logs one effect as (time, seq, who, what): the position the
// engine was at when it happened.
func (w *world) note(who, what string) {
	w.log = append(w.log, fmt.Sprintf("%d %d %s %s", w.e.now, w.e.seq, who, what))
}

// effect performs a non-waiting op; it runs in process context in the
// plain run and inside a Step, possibly in engine context, in the other.
func (w *world) effect(who string, op stepOp) {
	e := w.e
	switch op.kind {
	case kNote:
		w.note(who, "note")
	case kPulse:
		w.note(who, "pulse")
		w.sigs[op.k].Pulse()
	case kBroadcast:
		w.note(who, "broadcast")
		w.sigs[op.k].Broadcast()
	case kPut:
		w.note(who, "put")
		w.qs[op.k].Put(int(e.seq))
	case kSet:
		w.note(who, "set")
		w.evs[op.k].Set()
	case kReset:
		w.note(who, "reset")
		w.evs[op.k].Reset()
	case kAfter:
		w.note(who, "after")
		e.After(op.d, func() {
			w.note(who, "callback")
			w.sigs[op.k].Pulse()
			w.qs[op.k].Put(-1)
		})
	case kRand:
		w.note(who, fmt.Sprint("rand ", e.Rand().Intn(1000)))
	case kSpawn:
		w.note(who, "spawn")
		e.Spawn(who+".child", func(p *Proc) {
			p.Sleep(op.d)
			w.note(p.Name(), "child")
		})
	case kStop:
		w.note(who, "stop")
		e.Stop()
	}
}

// plain runs ops as process code.
func (w *world) plain(p *Proc, ops []stepOp) {
	for _, op := range ops {
		switch op.kind {
		case kSleep:
			p.Sleep(op.d)
			w.note(p.name, "slept")
		case kWait:
			w.sigs[op.k].Wait(p)
			w.note(p.name, "woke")
		case kGet:
			w.note(p.name, fmt.Sprint("got ", w.qs[op.k].Get(p)))
		case kLatch:
			w.evs[op.k].wait(p)
			w.note(p.name, "latched")
		default:
			w.effect(p.name, op)
		}
	}
}

// interp runs ops as a Stepper: the same statements, a wait returned to
// the engine where plain parks.
type interp struct {
	w      *world
	p      *Proc
	ops    []stepOp
	waited bool // the wait of ops[0] has been issued
}

func (s *interp) Step() (Action, Duration) {
	w, p := s.w, s.p
	for ; len(s.ops) > 0; s.ops, s.waited = s.ops[1:], false {
		switch op := s.ops[0]; op.kind {
		case kSleep:
			if !s.waited {
				s.waited = true
				return SleepFor, op.d
			}
			w.note(p.name, "slept")
		case kWait:
			if !s.waited {
				s.waited = true
				w.sigs[op.k].Enlist(p)
				return Block, 0
			}
			w.note(p.name, "woke")
		case kGet:
			v, ok := w.qs[op.k].TryGet()
			if !ok {
				w.qs[op.k].Enlist(p)
				return Block, 0
			}
			w.note(p.name, fmt.Sprint("got ", v))
		case kLatch:
			if !w.evs[op.k].IsSet() {
				w.evs[op.k].Enlist(p)
				return Block, 0
			}
			w.note(p.name, "latched")
		default:
			w.effect(p.name, op)
		}
	}
	return Run, 0
}

// tieRecorder is an Explorer that chooses from its own seeded stream and
// keeps what it was offered.
type tieRecorder struct {
	w   *world
	rng *rand.Rand
}

func (x *tieRecorder) ChooseTie(ties []EventInfo) int {
	x.w.ties = append(x.w.ties, fmt.Sprint(ties))
	for _, ti := range ties {
		if ti.Proc != "" {
			x.w.named++
		}
	}
	return x.rng.Intn(len(ties))
}

// runProgram runs prog on a fresh engine, driven segments through Drive
// when drive is set, and returns the world, Run's error and the counters.
func runProgram(prog stepProgram, seed int64, drive, explore bool) (*world, error, Counters) {
	e := NewEngine(seed)
	w := &world{e: e}
	if explore {
		e.SetExplorer(&tieRecorder{w: w, rng: rand.New(rand.NewSource(seed))})
	}
	for k := 0; k < progObjects; k++ {
		s := newSignal(e)
		s.SetLabel(fmt.Sprint("signal ", k))
		q := NewQueue[int](e)
		q.sig.SetLabel(fmt.Sprint("queue ", k))
		ev := NewEvent(e)
		ev.SetLabel(fmt.Sprint("event ", k))
		w.sigs, w.qs, w.evs = append(w.sigs, s), append(w.qs, q), append(w.evs, ev)
	}
	tick := 0
	var ticker func()
	ticker = func() {
		w.note("ticker", "tick")
		for k := 0; k < progObjects; k++ {
			w.sigs[k].Broadcast()
			w.qs[k].Put(-2)
			if tick%2 == 0 {
				w.evs[k].Set()
			} else {
				w.evs[k].Reset()
			}
		}
		if tick++; tick < prog.ticks {
			e.After(prog.gap, ticker)
		}
	}
	e.After(prog.gap, ticker)
	for i, segs := range prog.procs {
		spawn := e.Spawn
		if prog.daemon[i] {
			spawn = e.SpawnDaemon
		}
		spawn(fmt.Sprint("p", i), func(p *Proc) {
			for _, seg := range segs {
				if drive && seg.driven {
					p.Drive(&interp{w: w, p: p, ops: seg.ops})
				} else {
					w.plain(p, seg.ops)
				}
			}
			w.note(p.name, "done")
		})
	}
	err := e.Run()
	return w, err, e.Counters()
}

// sameRun compares everything a Stepper must not move.
func sameRun(t *testing.T, seed int64, plain, driven *world, perr, derr error, pc, dc Counters) {
	t.Helper()
	if !slices.Equal(plain.log, driven.log) {
		for i := range plain.log {
			if i >= len(driven.log) || plain.log[i] != driven.log[i] {
				t.Fatalf("seed %d: logs diverge at entry %d of %d/%d:\nplain  %v\ndriven %v", seed, i, len(plain.log), len(driven.log),
					plain.log[max(0, i-3):i+1], driven.log[max(0, i-3):min(len(driven.log), i+1)])
			}
		}
		t.Fatalf("seed %d: the driven run logged %d entries more", seed, len(driven.log)-len(plain.log))
	}
	if fmt.Sprint(perr) != fmt.Sprint(derr) {
		t.Fatalf("seed %d: Run returned %v as process code, %v driven", seed, perr, derr)
	}
	if plain.e.now != driven.e.now || plain.e.seq != driven.e.seq {
		t.Fatalf("seed %d: ended at (%v, seq %d) as process code, (%v, seq %d) driven", seed, plain.e.now, plain.e.seq, driven.e.now, driven.e.seq)
	}
	if pc.Events != dc.Events || pc.SleepFast != dc.SleepFast || pc.MaxPending != dc.MaxPending {
		t.Fatalf("seed %d: counters %+v as process code, %+v driven", seed, pc, dc)
	}
	if !slices.Equal(plain.ties, driven.ties) {
		t.Fatalf("seed %d: the explorer was offered different ties (%d and %d decisions)", seed, len(plain.ties), len(driven.ties))
	}
	if pc.Hops != 0 || dc.Switches > pc.Switches {
		t.Fatalf("seed %d: %d hops as process code; %d switches driven against %d", seed, pc.Hops, dc.Switches, pc.Switches)
	}
}

// TestStepperIsTheProcess: over 600 seeded random programs, a run with
// segments handed to Drive produces the same log of (time, seq, who,
// what) for every effect and wakeup, the same error, the same Events,
// SleepFast and MaxPending as the run that executes them as process code
// — and, under an explorer that picks at random, is offered the same tie
// sets, which name the process each resume is for (EventInfo.Proc). Only
// the switches differ.
func TestStepperIsTheProcess(t *testing.T) {
	var hops, saved, deadlocks, stops, decisions, named uint64
	for seed := int64(1); seed <= 600; seed++ {
		prog := genProgram(rand.New(rand.NewSource(seed)))
		for _, explore := range []bool{false, true} {
			plain, perr, pc := runProgram(prog, seed, false, explore)
			driven, derr, dc := runProgram(prog, seed, true, explore)
			sameRun(t, seed, plain, driven, perr, derr, pc, dc)
			hops += dc.Hops
			saved += pc.Switches - dc.Switches
			decisions += uint64(len(driven.ties))
			named += uint64(driven.named)
			if _, ok := derr.(*ErrDeadlock); ok {
				deadlocks++
			}
			if driven.e.stopped {
				stops++
			}
		}
	}
	t.Logf("%d hops, %d switches saved, %d explorer decisions (%d tied resumes), %d runs deadlocked, %d stopped", hops, saved, decisions, named, deadlocks, stops)
	if hops == 0 || saved == 0 || decisions == 0 || named == 0 || deadlocks == 0 || stops == 0 {
		t.Error("the programs no longer cover hops, ties naming a process, deadlocks and Stop: the test is vacuous")
	}
}

// napper is a Stepper that sleeps d, n times over, counting its Steps.
type napper struct {
	d     Duration
	n     int
	steps int
}

func (s *napper) Step() (Action, Duration) {
	s.steps++
	if s.n == 0 {
		return Run, 0
	}
	s.n--
	return SleepFor, s.d
}

// awaiter is a Stepper that waits until *done: the Event.wait loop.
type awaiter struct {
	p     *Proc
	sig   *signal
	done  *bool
	steps int
}

func (s *awaiter) Step() (Action, Duration) {
	s.steps++
	if *s.done {
		return Run, 0
	}
	s.sig.Enlist(s.p)
	return Block, 0
}

// TestStepperRunEndsMidSequence: Stop, and the last foreground process
// finishing, while two other processes are mid-sequence — one with a
// resume in the calendar, one blocked — end the run at once: no further
// Step runs, and the two are reaped like any parked process, their
// deferred functions run once, nothing after their Drive.
func TestStepperRunEndsMidSequence(t *testing.T) {
	for _, how := range []string{"stop", "last foreground"} {
		e := NewEngine(1)
		spawn := e.Spawn
		if how == "last foreground" {
			spawn = e.SpawnDaemon
		}
		sig, never := newSignal(e), false
		nap := &napper{d: 10, n: 1000}
		var wait *awaiter
		exits, ranOn := 0, 0
		spawn("napping", func(p *Proc) {
			defer func() { exits++ }()
			p.Drive(nap)
			ranOn++
		})
		spawn("waiting", func(p *Proc) {
			defer func() { exits++ }()
			wait = &awaiter{p: p, sig: sig, done: &never}
			p.Drive(wait)
			ranOn++
		})
		e.Spawn("ender", func(p *Proc) {
			for p.Now() < 55 {
				p.Sleep(11) // between the naps, so that each of those is an event
			}
			if how == "stop" {
				e.Stop()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("%s: Run gave %v", how, err)
		}
		// Steps at 0 (in the process), 10, ..., 50; the hop at 60 never runs.
		if nap.steps != 6 || wait.steps != 1 || e.Now() != 55 {
			t.Errorf("%s: %d and %d steps, ended at %v; want 6 and 1 at 55ns", how, nap.steps, wait.steps, e.Now())
		}
		if c := e.Counters(); c.Hops != 5 {
			t.Errorf("%s: %d hops, want 5", how, c.Hops)
		}
		if exits != 2 || ranOn != 0 {
			t.Errorf("%s: deferred functions ran %d times (want 2), %d processes ran on past Drive", how, exits, ranOn)
		}
	}
}

// napThenWait is a Stepper that sleeps and then blocks for good: the
// engine, not the process, runs the Step that enlists it.
type napThenWait struct {
	p     *Proc
	sig   *signal
	slept bool
}

func (s *napThenWait) Step() (Action, Duration) {
	if !s.slept {
		s.slept = true
		return SleepFor, 5
	}
	s.sig.Enlist(s.p)
	return Block, 0
}

// TestStepperDeadlockReport: a process blocked mid-sequence, by a Step
// the engine ran, is reported with the label of what that Step enlisted
// it on.
func TestStepperDeadlockReport(t *testing.T) {
	e := NewEngine(1)
	sig := newSignal(e)
	sig.SetLabel("a reply that never comes")
	e.Spawn("caller", func(p *Proc) { p.Drive(&napThenWait{p: p, sig: sig}) })
	e.Spawn("bystander", func(p *Proc) { p.Sleep(100) })
	err := e.Run()
	want := "sim: deadlock at t=0.100us: blocked processes [caller (waiting on a reply that never comes)]"
	if err == nil || err.Error() != want {
		t.Errorf("got  %v\nwant %s", err, want)
	}
	if c := e.Counters(); c.Hops != 1 {
		t.Errorf("%d hops, want 1: the blocking Step did not run in engine context", c.Hops)
	}
}

// TestStepperSpuriousWakeReenlistsAtTail: a stepper woken without its
// condition enlists again behind whoever waited meanwhile, exactly as a
// process looping around Wait does, so the next Pulse goes to the second
// waiter and not back to it.
func TestStepperSpuriousWakeReenlistsAtTail(t *testing.T) {
	for _, driven := range []bool{false, true} {
		e := NewEngine(1)
		sig, done := newSignal(e), false
		var order []string
		steps := 0
		e.Spawn("first", func(p *Proc) {
			if driven {
				a := &awaiter{p: p, sig: sig, done: &done}
				p.Drive(a)
				steps = a.steps
			} else {
				for !done {
					sig.Wait(p)
				}
			}
			order = append(order, "first")
		})
		e.Spawn("second", func(p *Proc) {
			sig.Wait(p)
			order = append(order, "second")
		})
		e.Spawn("pulser", func(p *Proc) {
			p.Sleep(10)
			sig.Pulse() // first, spuriously: it goes to the tail, behind second
			p.Sleep(10)
			if (len(sig.waiters) - sig.head) != 2 {
				t.Errorf("driven=%v: %d waiters after the spurious wake, want 2", driven, (len(sig.waiters) - sig.head))
			}
			sig.Pulse() // second
			p.Sleep(10)
			done = true
			sig.Pulse() // first, for good
		})
		if err := e.Run(); err != nil {
			t.Fatalf("driven=%v: %v", driven, err)
		}
		if got := strings.Join(order, " "); got != "second first" {
			t.Errorf("driven=%v: woke in order %q, want \"second first\"", driven, got)
		}
		if driven && steps != 3 {
			t.Errorf("%d steps, want 3 (enlist, enlist again, run)", steps)
		}
	}
}

// bomb is a Stepper whose second Step — the first the engine takes —
// panics.
type bomb struct {
	val   any
	armed bool
}

func (s *bomb) Step() (Action, Duration) {
	if s.armed {
		panic(s.val)
	}
	s.armed = true
	return SleepFor, 5
}

// TestStepperPanicSurfacesFromRun: a panic inside a Step the engine runs —
// on the coroutine of whichever process was parking, here a bystander —
// comes out of Run with its original value, and every process is unwound
// once.
func TestStepperPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ n int }
	e := NewEngine(1)
	exits := 0
	e.Spawn("stepped", func(p *Proc) {
		defer func() { exits++ }()
		p.Drive(&bomb{val: boom{42}})
	})
	e.Spawn("bystander", func(p *Proc) {
		defer func() { exits++ }()
		p.Sleep(1000)
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		return e.Run()
	}()
	if got != (boom{42}) {
		t.Fatalf("Run gave %v, want panic(boom{42})", got)
	}
	if exits != 2 {
		t.Errorf("deferred functions ran %d times, want 2", exits)
	}
}

// TestStepperExploredPanicNamesItsProcess: under exploration the same
// panic is a finding that names the process whose sequence it broke, not
// the process on whose coroutine the engine happened to run the Step;
// the process stays parked, its sequence broken, and both are reaped and
// their carriers come back.
func TestStepperExploredPanicNamesItsProcess(t *testing.T) {
	e := NewEngine(1)
	e.SetExplorer(firstTie{})
	exits, resumed := 0, false
	var hosts []*carrier
	e.Spawn("stepped", func(p *Proc) {
		defer func() { exits++ }()
		hosts = append(hosts, p.c)
		p.Drive(&bomb{val: "invariant broken"})
		resumed = true
	})
	e.Spawn("bystander", func(p *Proc) {
		defer func() { exits++ }()
		hosts = append(hosts, p.c)
		p.Sleep(1000)
	})
	pe, ok := e.Run().(*ErrPanic)
	if !ok || pe.Proc != "stepped" || pe.Msg != "invariant broken" || pe.At != 5 {
		t.Fatalf("Run gave %v, want ErrPanic from stepped at 5ns", pe)
	}
	if exits != 2 || resumed {
		t.Errorf("deferred functions ran %d times, want 2; the broken sequence's process ran on: %v", exits, resumed)
	}
	for _, c := range hosts {
		if !isIdle(c) {
			t.Error("a reaped process's carrier did not return to the idle list")
		}
	}
}

// TestDrivePrice pins what the two kernel sequences (bench_test.go) cost
// in process switches per operation, as process code and driven: a
// charged receive falls from three (producer, wake, after the charge) to
// two, a call from five (client after the send charge, server, server
// after its service, client on the reply, client after the wake charge)
// to three, the events unchanged.
func TestDrivePrice(t *testing.T) {
	const ops = 4000
	for _, row := range []struct {
		name            string
		spawn           func(e *Engine, n int, driven bool)
		process, driven uint64 // switches per op
	}{
		{"receive", spawnReceive, 3, 2},
		{"call", spawnCall, 5, 3},
	} {
		var events uint64
		for _, driven := range []bool{false, true} {
			e := NewEngine(1)
			row.spawn(e, ops, driven)
			mustRun(t, e)
			c := e.Counters()
			t.Logf("%-8s driven=%-5v %d events, %d switches, %d coroswitches, %d hops", row.name, driven, c.Events, c.Switches, c.Coroswitches, c.Hops)
			want := row.process
			if driven {
				want = row.driven
			}
			if got := (c.Switches + ops/2) / ops; got != want {
				t.Errorf("%s, driven=%v: %d switches per op, want %d", row.name, driven, got, want)
			}
			if driven && c.Events != events {
				t.Errorf("%s: %d events driven, %d as process code", row.name, c.Events, events)
			}
			events = c.Events
		}
	}
}
