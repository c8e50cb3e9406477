// Receive-sequence suites: a synthetic protocol run through the kernel's
// message table and receive sequence, and the deadlock report of calls
// nobody answers.
package dsm

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
	"millipage/internal/trace"
	"millipage/internal/vm"
)

// installRow puts r in the message table at typ for the rest of the test.
func installRow(t *testing.T, typ mtype, r row) {
	orig := rows[typ]
	t.Cleanup(func() { rows[typ] = orig })
	rows[typ] = r
}

// The synthetic protocol of the receive-sequence tests: no shared memory,
// only messages, and a row of every kind the receive sequence runs,
// installed over the table's first rows. A message carries a hop budget
// (Seq) and a value (Addr); every handler folds what it received, and
// when, into its host's state and, while the budget lasts, passes messages
// on. Application threads start such chains and make calls (a Req to
// wake) that are answered in engine context.
const (
	synFront    mtype = iota // a front, then a process handler that waits and sends in-process
	synEngTail               // engine context, its forward (or a call's answer) as the tail
	synEng                   // engine context, no tail: wakes a caller
	synProcTail              // a process handler that sends in-process and returns a tail
	synProcSend              // a process handler that sends in-process and returns nil
	synDecline               // engine context, but one message in four waits: it declines
	synQueue                 // engine context, two sends queued before its tail
	synKinds
)

// synState is one run's: its clock, every host's state by host id and
// the rows as declared.
type synState struct {
	eng   *sim.Engine
	hosts []synHost
	rows  []row
}

type synHost struct {
	sum      uint64        // what it received, and when
	seen     [synKinds]int // messages received, by type
	declined int           // engine-context runs that declined
}

func (r *synState) fold(h *Host, m *Msg) *Msg {
	st := &r.hosts[h.ID()]
	st.sum = st.sum*1_000_003 + uint64(r.eng.Now())<<8 + uint64(m.Type)<<4 + m.Seq + m.Addr
	st.seen[m.Type]++
	return m
}

// post posts what m passes on, as type typ, while its budget lasts.
func (r *synState) post(h *Host, m *Msg, typ mtype) *fastmsg.Message {
	if m.Seq == 0 {
		return nil
	}
	to := (h.ID() + 1 + int(m.Addr%3)) % len(r.hosts)
	return h.post(to, &Msg{Type: typ, Seq: m.Seq - 1, Addr: m.Addr*7 + uint64(h.ID())})
}

// synFrontCost applies to three messages in four.
func synFrontCost(_ *Host, m *Msg, _ *fastmsg.Message) sim.Duration {
	if m.Addr%4 == 0 {
		return fastmsg.NoFront
	}
	return 3 * sim.Microsecond
}

func (r *synState) frontProc(h *Host, p *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	r.fold(h, m)
	p.Sleep(2 * sim.Microsecond)
	h.flush(p, r.post(h, m, synEngTail))
	return nil
}

func (r *synState) engTailRow(h *Host, _ *sim.Proc, m *Msg, fm *fastmsg.Message) *fastmsg.Message {
	if r.fold(h, m).Req != nil {
		return h.post(fm.From, &Msg{Type: synEng, Addr: m.Addr, Req: m.Req})
	}
	return r.post(h, m, synProcTail)
}

func (r *synState) engRow(h *Host, _ *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	if r.fold(h, m).Req != nil {
		m.Req.ev.Set()
	}
	return nil
}

func (r *synState) procTailRow(h *Host, p *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	r.fold(h, m)
	p.Sleep(4 * sim.Microsecond)
	h.flush(p, r.post(h, m, synProcSend))
	return r.post(h, m, synFront)
}

func (r *synState) procSendRow(h *Host, p *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	h.flush(p, r.post(h, r.fold(h, m), synFront))
	p.Sleep(sim.Microsecond)
	return nil
}

// declineRow waits, between two sends, for one message in four, which
// it declines in engine context before doing anything.
func (r *synState) declineRow(h *Host, p *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	if m.Addr%4 != 1 {
		return r.post(h, r.fold(h, m), synQueue)
	}
	if p == nil {
		r.hosts[h.ID()].declined++
		return fastmsg.Decline
	}
	h.flush(p, r.post(h, r.fold(h, m), synEngTail))
	p.Sleep(5 * sim.Microsecond)
	return r.post(h, m, synQueue)
}

// queueRow sends two messages in-process, then returns a third as its tail.
func (r *synState) queueRow(h *Host, p *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	h.flush(p, r.post(h, r.fold(h, m), synFront))
	h.flush(p, r.post(h, m, synEng))
	return r.post(h, m, synDecline)
}

var synNames = [synKinds]string{"SYN_FRONT", "SYN_ENGINE_TAIL", "SYN_ENGINE", "SYN_PROC_TAIL", "SYN_PROC_SEND",
	"SYN_DECLINE", "SYN_QUEUE"}

// handleMessage is the same protocol written as a HandleMessage was
// before the receive sequence ran fronts, engine-context handlers and
// tails: every charge and every send in the server thread.
func (r *synState) handleMessage(h *Host, p *sim.Proc, m *Msg, fm *fastmsg.Message) *fastmsg.Message {
	row := &r.rows[m.Type]
	if row.Front != nil {
		if d := row.Front(h, m, fm); d != fastmsg.NoFront {
			p.Sleep(d)
		}
	}
	h.flush(p, row.Handle(h, p, m, fm))
	return nil
}

// synResult is everything the receive sequence must leave as it was.
type synResult struct {
	err                        string
	now                        sim.Time
	events, sleepFast, pending uint64
	switches, declined         uint64
	dump                       string
	stats                      []fastmsg.Stats
	sums                       []uint64
	seen                       [synKinds]int
}

// synRun runs the synthetic protocol on four hosts, as declared (one row
// of each kind) or in-process (every row handleMessage), on a wire with the
// fault plan (nil: clean).
func synRun(t *testing.T, inProcess bool, plan *faultnet.Plan) synResult {
	t.Helper()
	const hosts = 4
	rec := trace.NewRecorder(1 << 17)
	s := newSys(t, New, Options{Hosts: hosts, SharedSize: vm.PageSize, Seed: 3, Faults: plan, Trace: rec})
	st := &synState{eng: s.Eng, hosts: make([]synHost, hosts)}
	st.rows = []row{
		synFront:    {Name: synNames[synFront], Front: synFrontCost, Handle: st.frontProc},
		synEngTail:  {Name: synNames[synEngTail], Handle: st.engTailRow, Engine: true},
		synEng:      {Name: synNames[synEng], Handle: st.engRow, Engine: true},
		synProcTail: {Name: synNames[synProcTail], Handle: st.procTailRow},
		synProcSend: {Name: synNames[synProcSend], Handle: st.procSendRow},
		synDecline:  {Name: synNames[synDecline], Front: synFrontCost, Handle: st.declineRow, Engine: true},
		synQueue:    {Name: synNames[synQueue], Handle: st.queueRow, Engine: true},
	}
	for typ, r := range st.rows {
		if inProcess {
			r = row{Name: r.Name, Handle: st.handleMessage}
		}
		installRow(t, mtype(typ), r)
	}
	s.Eng.At(sim.Time(10*sim.Second), s.Eng.Stop) // a call that hangs still ends the run
	runErr := s.Run(func(th *Thread) {
		for i := 0; i < 60; i++ {
			th.Compute(sim.Duration(20+(i*37+th.ID*11)%90) * sim.Microsecond)
			to, val := (th.ID+1+i%3)%hosts, uint64(4*i+th.ID)
			if i%3 != 2 {
				typ := []mtype{synFront, synProcTail, synQueue, synProcSend, synEngTail, synDecline}[(i-i/3)%6]
				th.host.send(th.p, to, &Msg{Type: typ, Seq: 4, Addr: val})
				continue
			}
			th.call(to, &Msg{Type: synEngTail, Addr: val}, blocking{For: "syn answer", Wake: sim.Microsecond})
		}
	})
	c := s.Eng.Counters()
	var dump bytes.Buffer
	rec.Dump(&dump)
	r := synResult{err: fmt.Sprint(runErr), now: s.Eng.Now(), events: c.Events, sleepFast: c.SleepFast,
		pending: c.MaxPending, switches: c.Switches, dump: dump.String()}
	for i, h := range st.hosts {
		r.stats = append(r.stats, s.Net.Endpoint(i).Stats())
		r.sums = append(r.sums, h.sum)
		r.declined += uint64(h.declined)
		for k, n := range h.seen {
			r.seen[k] += n
		}
	}
	return r
}

// TestReceiveSequenceIsTheServer: the synthetic protocol with a row of
// every kind — a front before a process handler, engine-context handlers
// with and without a tail, one that declines the messages it would wait
// on, one that queues two sends before its tail, process handlers
// returning a tail and sending in-process — runs event for event as the
// same protocol written as an in-process HandleMessage: the same Events,
// SleepFast and MaxPending, the same trace record stream (a queued send's
// Send record stamped at its turn), endpoint Stats and host state, the
// same end; only the switches fall. On a clean wire, under drop-heavy and
// under crash-restart, where the transport alone carries every call.
func TestReceiveSequenceIsTheServer(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *faultnet.Plan
	}{
		{"clean", nil},
		{"drop-heavy", &faultnet.Plan{Seed: 11, Drop: 0.25, Dup: 0.15}},
		{"crash-restart", &faultnet.Plan{Seed: 11, Drop: 0.02, Crashes: []faultnet.Crash{
			{Host: 2, At: sim.Time(sim.Millisecond), RestartAt: sim.Time(3 * sim.Millisecond)},
			{Host: 0, At: sim.Time(4 * sim.Millisecond), RestartAt: sim.Time(6 * sim.Millisecond)}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, got := synRun(t, true, tc.plan), synRun(t, false, tc.plan)
			if got.err != want.err || got.now != want.now {
				t.Fatalf("declared: Run = %s at %v; in-process: %s at %v", got.err, got.now, want.err, want.now)
			}
			if got.events != want.events || got.sleepFast != want.sleepFast || got.pending != want.pending {
				t.Fatalf("declared: %d events, %d SleepFast, %d pending; in-process: %d, %d, %d",
					got.events, got.sleepFast, got.pending, want.events, want.sleepFast, want.pending)
			}
			if got.dump != want.dump {
				t.Fatalf("the trace record streams differ (%d and %d bytes)", len(got.dump), len(want.dump))
			}
			if !slices.Equal(got.stats, want.stats) || !slices.Equal(got.sums, want.sums) || got.seen != want.seen {
				t.Fatalf("declared: stats %v, state %x, seen %v; in-process: %v, %x, %v",
					got.stats, got.sums, got.seen, want.stats, want.sums, want.seen)
			}
			for k, n := range got.seen {
				if n == 0 {
					t.Fatalf("no %s was received: the run does not cover its row", synNames[k])
				}
			}
			if got.switches >= want.switches {
				t.Fatalf("declared: %d switches, in-process %d: nothing ran in the sequence", got.switches, want.switches)
			}
			if got.declined == 0 {
				t.Fatal("no SYN_DECLINE declined engine context: the run does not cover the thread's side of it")
			}
			t.Logf("%d events, switches %d -> %d, %d declined, %d messages received", got.events, want.switches, got.switches, got.declined, got.seen)
		})
	}
}

// TestDeadlockNamesWhatThreadsWaitFor: a run whose replies never come
// ends in a deadlock report that says, thread by thread, which operation
// hangs — the wait reason every block carries — whether the thread was
// blocked by its own first Step (no request, nothing to charge) or, mid-
// sequence, by one the engine ran after the request's send charge.
func TestDeadlockNamesWhatThreadsWaitFor(t *testing.T) {
	installRow(t, 0, row{Name: "NOP", Handle: func(*Host, *sim.Proc, *Msg, *fastmsg.Message) *fastmsg.Message { return nil }}) // drops it
	s := newSys(t, New, Options{Hosts: 3, SharedSize: vm.PageSize})
	set := sim.NewEvent(s.Eng)
	set.Set()
	err := s.Run(func(th *Thread) {
		switch th.ID {
		case 0: // a call nobody answers (host 1 drops the request)
			th.call(1, &Msg{}, blocking{For: "lock grant", Wake: sim.Microsecond})
		case 1:
			th.block(blocking{For: "flush done", On: sim.NewEvent(s.Eng), Pre: sim.Microsecond})
		case 2: // the group's first member is there, the second never comes
			th.block(blocking{For: "prefetch group", Group: []*sim.Event{set, sim.NewEvent(s.Eng)}})
		}
		t.Errorf("thread %d woke", th.ID)
	})
	de, ok := err.(*sim.ErrDeadlock)
	if !ok {
		t.Fatalf("Run = %v, want a deadlock", err)
	}
	want := []sim.BlockedProc{
		{Name: "app-0.0", Waiting: "lock grant"},
		{Name: "app-1.0", Waiting: "flush done"},
		{Name: "app-2.0", Waiting: "prefetch group"},
	}
	if !slices.Equal(de.Waits, want) {
		t.Errorf("blocked on %v, want %v", de.Waits, want)
	}
	if got := s.Net.Endpoint(1).Stats().Received; got != 1 {
		t.Errorf("host 1 received %d requests, want thread 0's", got)
	}
	if s.Eng.Counters().Hops == 0 {
		t.Error("no Step ran in engine context: nobody was blocked mid-sequence")
	}
}
