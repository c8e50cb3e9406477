package dsm

import (
	"fmt"

	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/sim"
	"millipage/internal/stats"
	"millipage/internal/vm"
)

// Wait is the per-transaction rendezvous between a requesting thread and
// its host's DSM server thread: the event the thread blocks on, plus the
// reply fields the handler fills in before setting it.
type Wait struct {
	Ev   *sim.Event
	Info core.Info // translation info carried back by the reply
}

// newWait returns a fresh rendezvous record, for a transaction that
// outlives the issuing call (a prefetch); synchronous paths reuse the
// thread's slot via WaitSlot.
func newWait(eng *sim.Engine) *Wait { return &Wait{Ev: sim.NewEvent(eng)} }

// Thread is one application thread's view of the DSM: the entire
// user-facing Millipage API (Section 3.4's library interface) — memory
// access, Malloc, Barrier, Lock and Unlock (service.go), Compute, Idle and stats,
// and the Millipage performance hints, which only the SC class serves:
// under lrc-mw they are correct no-ops. Behind it are its simulated
// process, its rendezvous slot and its time-breakdown statistics.
// All methods must be called from the thread's own body function.
type Thread struct {
	host *Host
	p    *sim.Proc // nil once its body has returned

	// fw is the thread's reusable rendezvous for synchronous blocking
	// operations (faults, malloc, barriers, locks). A thread blocks on at
	// most one of these at a time, so a single record per thread suffices;
	// prefetch paths allocate fresh records because their rendezvous
	// outlives the issuing call.
	fw *Wait

	ID  int // global thread id
	LID int // local index on the host

	// The blocking operation in progress (Block), which the thread itself
	// is the stepper of: what it is (op.Group the events still to wait
	// for; one backs the common list of one), where Step is in it, and
	// the posted request.
	op      Blocking
	stage   opStage
	one     [1]*sim.Event
	request *fastmsg.Message

	req request // its request in flight: a fault's, or a service call's rendezvous (ask)

	prefetchWait bool // the read fault in service waited on a prefetch: onFault books it as prefetch wait
	locks        int  // the locks it holds (HoldsLock)

	Stats ThreadStats
}

// HoldsLock reports whether the thread is in a critical section.
func (t *Thread) HoldsLock() bool { return t.locks > 0 }

// Host returns the hosting process's id.
func (t *Thread) Host() int { return t.host.id }

// ThreadID returns the global thread id.
func (t *Thread) ThreadID() int { return t.ID }

// NumHosts returns the cluster size.
func (t *Thread) NumHosts() int { return t.host.sys.NumHosts() }

// NumThreads returns the total application thread count.
func (t *Thread) NumThreads() int { return len(t.host.sys.threads) }

// Now returns the current virtual time.
func (t *Thread) Now() sim.Time { return t.p.Now() }

// Compute charges d of pure computation to the thread — the modeled cost
// of the application code between shared-memory operations.
func (t *Thread) Compute(d sim.Duration) {
	t.Stats.ComputeTime += d
	t.p.Sleep(d)
}

// Idle waits d without computing, as a server's event loop polling its
// ingress and FM: like Block it gives up the host's busy reference, so
// arrivals are served after PollIdle, not at a sweeper tick. It books d as
// IdleTime and resumes at now+d, with no block or wake charge.
func (t *Thread) Idle(d sim.Duration) {
	if d > 0 {
		t.Stats.IdleTime += d
		t.host.EP.SetBusy(-1)
		t.p.Sleep(d)
		t.host.EP.SetBusy(+1)
	}
}

// WaitSlot returns the thread's rendezvous, reset for a new transaction
// (whose reply sets its Info).
func (t *Thread) WaitSlot() *Wait {
	if t.fw == nil {
		t.fw = newWait(t.host.sys.Eng)
	}
	fw := t.fw
	fw.Ev.Reset()
	return fw
}

// Blocking describes one blocking operation of an application thread,
// the argument of Thread.Block: what to wait for, what the wait costs the
// thread on either side and, for a call, the request that goes out first.
type Blocking struct {
	// For says what the thread waits for ("fault reply", "lock grant"); a
	// deadlock report prints it as the thread's wait reason.
	For string

	// The wait ends when FW's event is set — or, without a rendezvous, the
	// bare event On, or every event of Group, awaited in order.
	FW    *Wait
	On    *sim.Event
	Group []*sim.Event

	Pre  sim.Duration // charged before blocking (suspending the thread on its event); 0 charges nothing
	Wake sim.Duration // charged after waking (SetEvent and scheduler latency, fault resumption)

	// Request, when not nil, makes the operation a call: the header is
	// sent to host To first, as Host.send would.
	To      int
	Request *Msg
	Lead    sim.Duration // charged before the send: the requester's own work it waits on (a fault's Translate)

	// Close, when not nil, ends a call with the header that closes it (a
	// fault's ack to the home), taken from it after Wake: it is posted and
	// its send CPU charged as the sequence's last stage, as a Send from the
	// woken thread would.
	Close *request
}

// opStage is where a blocking operation's sequence stands.
type opStage uint8

const (
	opLead     opStage = iota // charge Lead
	opSend                    // post the request, charge its send CPU
	opTransmit                // put it on the wire
	opSuspend                 // charge Pre
	opRelease                 // give up the host's busy reference
	opWait                    // wait for the events, take the busy reference back, charge Wake
	opClose                   // post the closing header, charge its send CPU
	opClosed                  // put it on the wire
)

// Block is the one place an application thread blocks: it sends b's
// request, if any, and parks the thread until what b names has happened,
// releasing the host's busy reference meanwhile so the endpoint poller
// takes over. The whole operation — Lead, send CPU, wire, Pre, the wait,
// Wake, the closing send — is one engine-side wait sequence (sim.Stepper,
// Step below), so the thread is switched to once, when it is over, not at
// every charge.
func (t *Thread) Block(b Blocking) {
	t.op, t.stage = b, opSuspend
	switch {
	case b.FW != nil:
		t.one[0], t.op.Group = b.FW.Ev, t.one[:]
	case b.On != nil:
		t.one[0], t.op.Group = b.On, t.one[:]
	}
	if b.Request != nil {
		t.stage = opLead
	}
	t.p.Drive(t)
}

// Step advances the blocking operation in progress (sim.Stepper): the
// first one in the thread itself, at Block, the later ones in engine
// context at the thread's resume events, doing there exactly what the
// thread did between its Sleeps and Waits when it ran them itself.
func (t *Thread) Step() (sim.Action, sim.Duration) {
	h, op := t.host, &t.op
	switch t.stage {
	case opLead:
		t.stage = opSend
		if op.Lead != 0 {
			return sim.SleepFor, op.Lead
		}
		fallthrough
	case opSend:
		t.request = h.post(op.To, op.Request)
		t.stage = opTransmit
		return sim.SleepFor, h.sys.Opt.Net.SendCPU(t.request.Size)
	case opTransmit:
		h.EP.Transmit(t.request)
		fallthrough
	case opSuspend:
		t.stage = opRelease
		if op.Pre != 0 {
			return sim.SleepFor, op.Pre
		}
		fallthrough
	case opRelease:
		h.EP.SetBusy(-1)
		t.stage = opWait
		fallthrough
	case opWait:
		for ; len(op.Group) > 0; op.Group = op.Group[1:] {
			if ev := op.Group[0]; !ev.IsSet() {
				ev.SetLabel(op.For)
				ev.Enlist(t.p)
				return sim.Block, 0
			}
		}
		h.EP.SetBusy(+1)
		t.stage = opClose
		return sim.SleepFor, op.Wake
	case opClose:
		if op.Close != nil {
			to, m := op.Close.closing()
			t.request, t.stage = h.post(to, m), opClosed
			return sim.SleepFor, h.sys.Opt.Net.SendCPU(t.request.Size)
		}
	case opClosed:
		h.EP.Transmit(t.request)
	}
	t.request, t.op = nil, Blocking{} // no recycled header or stale wait reason outlives the operation
	return sim.Run, 0
}

// ResetStats zeroes the thread's accumulated statistics and restarts its
// clock. Benchmarks call it when the timed section begins so setup
// (allocation, data distribution) is excluded from the breakdown.
func (t *Thread) ResetStats() {
	t.Stats = ThreadStats{Start: t.p.Now()}
}

// checkAccess panics out of Run when a shared-memory access failed — a bug
// in the program or the protocol — naming the protocol, the thread, the kind
// of access and the address. It inlines to a nil test: an access that does
// not fault is a translation, a protection test and the copy, or for the
// typed ones a load or store in the frame itself (vm/typed.go).
func (t *Thread) checkAccess(kind vm.AccessKind, va uint64, err error) {
	if err != nil {
		t.accessFailed(kind, va, err)
	}
}

//go:noinline
func (t *Thread) accessFailed(kind vm.AccessKind, va uint64, err error) {
	panic(fmt.Sprintf("%s: thread %d: %v %#x: %v", t.host.sys.Name, t.ID, kind, va, err))
}

// Read copies len(buf) bytes of shared memory at va into buf, faulting
// and fetching sharing units as the protocol dictates.
func (t *Thread) Read(va uint64, buf []byte) {
	t.checkAccess(vm.Read, va, t.host.AS.Access(t, va, buf, vm.Read))
}

// Write stores data into shared memory at va.
func (t *Thread) Write(va uint64, data []byte) {
	t.checkAccess(vm.Write, va, t.host.AS.Access(t, va, data, vm.Write))
}

// ReadU32 reads a shared little-endian uint32.
func (t *Thread) ReadU32(va uint64) uint32 {
	v, err := t.host.AS.ReadU32(t, va)
	t.checkAccess(vm.Read, va, err)
	return v
}

// WriteU32 writes a shared little-endian uint32.
func (t *Thread) WriteU32(va uint64, v uint32) {
	t.checkAccess(vm.Write, va, t.host.AS.WriteU32(t, va, v))
}

// ReadU64 reads a shared little-endian uint64.
func (t *Thread) ReadU64(va uint64) uint64 {
	v, err := t.host.AS.ReadU64(t, va)
	t.checkAccess(vm.Read, va, err)
	return v
}

// WriteU64 writes a shared little-endian uint64.
func (t *Thread) WriteU64(va uint64, v uint64) {
	t.checkAccess(vm.Write, va, t.host.AS.WriteU64(t, va, v))
}

// ReadF64 reads a shared float64.
func (t *Thread) ReadF64(va uint64) float64 {
	v, err := t.host.AS.ReadF64(t, va)
	t.checkAccess(vm.Read, va, err)
	return v
}

// WriteF64 writes a shared float64.
func (t *Thread) WriteF64(va uint64, v float64) {
	t.checkAccess(vm.Write, va, t.host.AS.WriteF64(t, va, v))
}

// ThreadStats is the per-thread execution-time breakdown reported in
// Figure 6 (right): computation, prefetch, read faults, write faults and
// synchronization.
type ThreadStats struct {
	Start, End sim.Time

	ComputeTime    sim.Duration
	ReadFaultTime  sim.Duration
	WriteFaultTime sim.Duration
	PrefetchTime   sim.Duration // waits attributable to in-flight prefetches, plus issue cost
	SynchTime      sim.Duration // barriers and locks
	MallocTime     sim.Duration
	IdleTime       sim.Duration // waits in Idle: no category's, not even computation's

	ReadFaults  uint64
	WriteFaults uint64
	Prefetches  uint64
	Barriers    uint64

	// Latency histograms (log-scale) for tail analysis: the paper's mean
	// service delays hide the NT timers' bimodal shape.
	ReadFaultHist  stats.Histogram
	WriteFaultHist stats.Histogram
}

// Total returns the thread's wall time.
func (st ThreadStats) Total() sim.Duration { return st.End.Sub(st.Start) }

// Other returns time not attributed to any category (protocol sends,
// residual bookkeeping); Figure 6 folds this into computation.
func (st ThreadStats) Other() sim.Duration {
	return st.Total() - st.ComputeTime - st.ReadFaultTime - st.WriteFaultTime -
		st.PrefetchTime - st.SynchTime - st.MallocTime - st.IdleTime
}

// sendPrefetch records [va, va+size) as in flight, translates va and
// issues one prefetch request for the minipage backing it. The reliable
// transport carries it across a crash of either end, and the home serves
// it once, as it does every request. Its rendezvous, returned, outlives
// the call.
func (t *Thread) sendPrefetch(p *sim.Proc, va uint64, size int) *Wait {
	h := t.host
	h.prefetchSpans = append(h.prefetchSpans, span{base: va, size: size})
	p.Sleep(h.Costs().MPTLookup)
	home, info, err := h.route(va)
	if err != nil {
		h.sys.misuse(h.ID(), "prefetch: %v", err)
	}
	r := &request{h: h, fw: newWait(h.sys.Eng)}
	h.sendNew(p, home, Msg{Type: mReadReq, From: h.ID(), Addr: va, Info: info, Prefetch: true, Req: r, Epoch: h.epoch})
	t.Stats.Prefetches++
	return r.fw
}

// Prefetch asynchronously requests a read copy of the minipage(s) backing
// [va, va+size). If the region is already readable it is a no-op. The
// paper inserts two such calls in LU to hide its large minipage service
// delays (Section 4.3.1).
func (t *Thread) Prefetch(va uint64, size int) {
	if t.host.sys.mw {
		return
	}
	p := t.p
	start := p.Now()
	if prot, err := t.host.AS.ProtOf(va); err == nil && prot >= vm.ReadOnly {
		return
	}
	if t.inPrefetchSpan(va) {
		return
	}
	t.sendPrefetch(p, va, size)
	t.Stats.PrefetchTime += p.Now().Sub(start)
}

// Push replicates the minipage containing va (which this thread's host
// must currently hold writable) to every host as a read copy — the
// paper's modification to TSP's minimal-tour bound: "it pushes readable
// copies of the new value to all hosts".
func (t *Thread) Push(va uint64) {
	if t.host.sys.mw {
		return
	}
	p := t.p
	p.Sleep(t.host.Costs().MPTLookup)
	home, info, err := t.host.route(va)
	if err != nil {
		t.host.sys.misuse(t.host.ID(), "push: %v", err)
	}
	t.host.sendNew(p, home, Msg{Type: mPushReq, From: t.host.ID(), Addr: va, Info: info, Epoch: t.host.epoch})
}

// Span names a shared region for group operations.
type Span struct {
	Addr uint64
	Size int
}

// GangFetch realizes the paper's composed-views proposal (Section 5):
// treat a group of minipages as one higher-level unit for fetching. All
// missing members are requested concurrently and the thread blocks once
// for the whole group, so the group's fetch latency is the slowest
// member rather than the sum — the "coarse grain operation mode" for
// read phases, without giving up fine-grain write sharing.
func (t *Thread) GangFetch(spans []Span) {
	if t.host.sys.mw {
		return
	}
	p := t.p
	start := p.Now()
	h := t.host
	c := h.Costs()
	var evs []*sim.Event
	for _, sp := range spans {
		if prot, err := h.AS.ProtOf(sp.Addr); err != nil || prot >= vm.ReadOnly {
			continue
		}
		if t.inPrefetchSpan(sp.Addr) {
			continue
		}
		evs = append(evs, t.sendPrefetch(p, sp.Addr, sp.Size).Ev)
	}
	if len(evs) > 0 {
		t.Block(Blocking{For: "prefetch group", Group: evs, Wake: c.ThreadWake})
	}
	t.Stats.PrefetchTime += p.Now().Sub(start)
}
