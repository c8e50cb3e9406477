// Receive-sequence suites: a synthetic protocol run through the kernel's
// message tables and receive sequence, and the steady-state cost of the
// service rows.
package cluster_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"millipage/internal/dsm"
	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
	"millipage/internal/trace"
	"millipage/internal/vm"
)

// The synthetic protocol of the receive-sequence tests: no shared memory,
// only messages, and a row of every kind the receive sequence runs. A
// message carries a hop budget; every handler folds what it received, and
// when, into its host's state and, while the budget lasts, passes messages
// on. Application threads start such chains and make calls that are
// answered in engine context.
const (
	synFront    = iota // a front, then a process handler that waits and sends in-process
	synEngTail         // engine context, its forward (or a call's answer) as the tail
	synEng             // engine context, no tail: wakes a caller
	synProcTail        // a process handler that sends in-process and returns a tail
	synProcSend        // a process handler that sends in-process and returns nil
	synDecline         // engine context, but one message in four waits: it declines
	synQueue           // engine context, two sends queued before its tail
	synKinds
)

type synTable = dsm.MsgTable[*synMsg]

type synMsg struct {
	dsm.PoolState
	typ, hops, val int
	fw             *dsm.Wait
	run            *synState
}

func (m *synMsg) Table() (dsm.Table, int) { return m.run.tab, m.typ }

// synState is one run's: the table its messages go by, its clock, and
// every host's state by host id.
type synState struct {
	tab   dsm.Table
	eng   *sim.Engine
	hosts []synHost
}

type synHost struct {
	sum      uint64        // what it received, and when
	seen     [synKinds]int // messages received, by type
	declined int           // engine-context runs that declined
}

func (m *synMsg) at(h *dsm.Host) *synHost { return &m.run.hosts[h.ID()] }

func fold(h *dsm.Host, m *synMsg) *synMsg {
	st := m.at(h)
	st.sum = st.sum*1_000_003 + uint64(m.run.eng.Now())<<8 + uint64(m.typ<<4+m.hops) + uint64(m.val)
	st.seen[m.typ]++
	return m
}

// post posts what m passes on, as type typ, while its budget lasts.
func post(h *dsm.Host, m *synMsg, typ int) *fastmsg.Message {
	if m.hops == 0 {
		return nil
	}
	to := (h.ID() + 1 + m.val%3) % len(m.run.hosts)
	return h.Post(to, &synMsg{typ: typ, hops: m.hops - 1, val: m.val*7 + h.ID(), run: m.run})
}

// synFrontCost applies to three messages in four.
func synFrontCost(_ *dsm.Host, m *synMsg, _ *fastmsg.Message) sim.Duration {
	if m.val%4 == 0 {
		return fastmsg.NoFront
	}
	return 3 * sim.Microsecond
}

func synFrontProc(h *dsm.Host, p *sim.Proc, m *synMsg, _ *fastmsg.Message) *fastmsg.Message {
	fold(h, m)
	p.Sleep(2 * sim.Microsecond)
	h.Flush(p, post(h, m, synEngTail))
	return nil
}

func synEngTailRow(h *dsm.Host, _ *sim.Proc, m *synMsg, fm *fastmsg.Message) *fastmsg.Message {
	if fold(h, m).fw != nil {
		return h.Post(fm.From, &synMsg{typ: synEng, val: m.val, fw: m.fw, run: m.run})
	}
	return post(h, m, synProcTail)
}

func synEngRow(h *dsm.Host, _ *sim.Proc, m *synMsg, _ *fastmsg.Message) *fastmsg.Message {
	if fold(h, m).fw != nil {
		m.fw.Ev.Set()
	}
	return nil
}

func synProcTailRow(h *dsm.Host, p *sim.Proc, m *synMsg, _ *fastmsg.Message) *fastmsg.Message {
	fold(h, m)
	p.Sleep(4 * sim.Microsecond)
	h.Flush(p, post(h, m, synProcSend))
	return post(h, m, synFront)
}

func synProcSendRow(h *dsm.Host, p *sim.Proc, m *synMsg, _ *fastmsg.Message) *fastmsg.Message {
	h.Flush(p, post(h, fold(h, m), synFront))
	p.Sleep(sim.Microsecond)
	return nil
}

// synDeclineRow waits, between two sends, for one message in four, which
// it declines in engine context before doing anything.
func synDeclineRow(h *dsm.Host, p *sim.Proc, m *synMsg, _ *fastmsg.Message) *fastmsg.Message {
	if m.val%4 != 1 {
		return post(h, fold(h, m), synQueue)
	}
	if p == nil {
		m.at(h).declined++
		return fastmsg.Decline
	}
	h.Flush(p, post(h, fold(h, m), synEngTail))
	p.Sleep(5 * sim.Microsecond)
	return post(h, m, synQueue)
}

// synQueueRow sends two messages in-process, then returns a third as its tail.
func synQueueRow(h *dsm.Host, p *sim.Proc, m *synMsg, _ *fastmsg.Message) *fastmsg.Message {
	h.Flush(p, post(h, fold(h, m), synFront))
	h.Flush(p, post(h, m, synEng))
	return post(h, m, synDecline)
}

func synDescribe(_ *dsm.Host, m *synMsg) (int, uint64, int) { return m.val % 5, uint64(m.hops), -1 }

var synNames = [synKinds]string{"SYN_FRONT", "SYN_ENGINE_TAIL", "SYN_ENGINE", "SYN_PROC_TAIL", "SYN_PROC_SEND",
	"SYN_DECLINE", "SYN_QUEUE"}

// synDeclared is the protocol as the kernel runs it: one row of each kind.
var synDeclared = dsm.Register(synTable{Describe: synDescribe, Rows: []dsm.MsgSpec[*synMsg]{
	synFront:    {Name: synNames[synFront], Front: synFrontCost, Handle: synFrontProc},
	synEngTail:  {Name: synNames[synEngTail], Handle: synEngTailRow, Engine: true},
	synEng:      {Name: synNames[synEng], Handle: synEngRow, Engine: true},
	synProcTail: {Name: synNames[synProcTail], Handle: synProcTailRow},
	synProcSend: {Name: synNames[synProcSend], Handle: synProcSendRow},
	synDecline:  {Name: synNames[synDecline], Front: synFrontCost, Handle: synDeclineRow, Engine: true},
	synQueue:    {Name: synNames[synQueue], Handle: synQueueRow, Engine: true},
}})

// synHandleMessage is the same protocol written as a HandleMessage was
// before the receive sequence ran fronts, engine-context handlers and
// tails: every charge and every send in the server thread.
func synHandleMessage(h *dsm.Host, p *sim.Proc, m *synMsg, fm *fastmsg.Message) *fastmsg.Message {
	row := &synDeclared.Rows[m.typ]
	if row.Front != nil {
		if d := row.Front(h, m, fm); d != fastmsg.NoFront {
			p.Sleep(d)
		}
	}
	h.Flush(p, row.Handle(h, p, m, fm))
	return nil
}

var synInProcess = func() *synTable {
	t := synTable{Describe: synDescribe}
	for _, name := range synNames {
		t.Rows = append(t.Rows, dsm.MsgSpec[*synMsg]{Name: name, Handle: synHandleMessage})
	}
	return dsm.Register(t)
}()

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

// synRun runs the synthetic protocol on four hosts under table tab, on a
// wire with the fault plan (nil: clean).
func synRun(t *testing.T, tab *synTable, plan *faultnet.Plan) synResult {
	t.Helper()
	const hosts = 4
	rec := trace.NewRecorder(1 << 17)
	s := newSys(t, dsm.Options{Hosts: hosts, SharedSize: vm.PageSize, Seed: 3, Faults: plan, Trace: rec})
	run := &synState{tab: tab, eng: s.Eng, hosts: make([]synHost, hosts)}
	s.Eng.At(sim.Time(10*sim.Second), s.Eng.Stop) // a call that hangs still ends the run
	runErr := s.Run(func(th *dsm.Thread) {
		for i := 0; i < 60; i++ {
			th.Compute(sim.Duration(20+(i*37+th.ID*11)%90) * sim.Microsecond)
			to, val := (th.ID+1+i%3)%hosts, 4*i+th.ID
			if i%3 != 2 {
				typ := []int{synFront, synProcTail, synQueue, synProcSend, synEngTail, synDecline}[(i-i/3)%6]
				th.Send(to, &synMsg{typ: typ, hops: 4, val: val, run: run})
				continue
			}
			fw := th.WaitSlot()
			th.Block(dsm.Blocking{For: "syn answer", FW: fw, Wake: sim.Microsecond, To: to,
				Request: &synMsg{typ: synEngTail, val: val, fw: fw, run: run}})
		}
	})
	c := s.Eng.Counters()
	var dump bytes.Buffer
	rec.Dump(&dump)
	r := synResult{err: fmt.Sprint(runErr), now: s.Eng.Now(), events: c.Events, sleepFast: c.SleepFast,
		pending: c.MaxPending, switches: c.Switches, dump: dump.String()}
	for i, h := range run.hosts {
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
			want, got := synRun(t, synInProcess, tc.plan), synRun(t, synDeclared, tc.plan)
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
