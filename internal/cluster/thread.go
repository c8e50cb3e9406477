package cluster

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

// NewWait returns a fresh rendezvous record. Protocols use it for
// transactions that outlive the issuing call (prefetches); synchronous
// paths reuse the thread's slot via WaitSlot.
func NewWait(eng *sim.Engine) *Wait { return &Wait{Ev: sim.NewEvent(eng)} }

// Thread is one application thread's substrate record: its simulated
// process, its rendezvous slot, and its time-breakdown statistics. It is
// the whole protocol-independent application API (AppThread; Malloc,
// Barrier, Lock and Unlock are in service.go); protocol packages embed
// *Thread in their own Thread types, which add only what is theirs
// (dsm's Prefetch, Push, GangFetch).
type Thread struct {
	h    *Host
	self any // the protocol's thread wrapper; its handlers' context
	p    *sim.Proc

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

	prefetchWait bool // the fault in service waited on a prefetch (WaitedOnPrefetch)
	locks        int  // the locks it holds (HoldsLock)

	Stats ThreadStats
}

// SetSelf installs the protocol's thread wrapper as the fault-handler
// context for this thread's memory accesses. dsm's System.Run calls it
// before the body starts.
func (t *Thread) SetSelf(self any) { t.self = self }

// WaitedOnPrefetch, called from HandleFault, has the fault frame book the
// read fault in service as prefetch wait instead of read-fault time.
func (t *Thread) WaitedOnPrefetch() { t.prefetchWait = true }

// HoldsLock reports whether the thread is in a critical section.
func (t *Thread) HoldsLock() bool { return t.locks > 0 }

// Proc returns the thread's simulated process (valid once running).
func (t *Thread) Proc() *sim.Proc { return t.p }

// Host returns the hosting process's id.
func (t *Thread) Host() int { return t.h.id }

// ThreadID returns the global thread id.
func (t *Thread) ThreadID() int { return t.ID }

// NumHosts returns the cluster size.
func (t *Thread) NumHosts() int { return t.h.rt.NumHosts() }

// NumThreads returns the total application thread count.
func (t *Thread) NumThreads() int { return t.h.rt.totalThreads }

// Now returns the current virtual time.
func (t *Thread) Now() sim.Time { return t.p.Now() }

// Compute charges d of pure computation to the thread — the modeled cost
// of the application code between shared-memory operations.
func (t *Thread) Compute(d sim.Duration) {
	t.Stats.ComputeTime += d
	t.p.Sleep(d)
}

// WaitSlot returns the thread's rendezvous, reset for a new transaction.
func (t *Thread) WaitSlot() *Wait {
	if t.fw == nil {
		t.fw = NewWait(t.h.rt.Eng)
		return t.fw
	}
	fw := t.fw
	fw.Ev.Reset()
	fw.Info = core.Info{}
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

	// Request, when not nil, makes the operation a call: the header-sized
	// payload is sent to host To first, as Host.Send would.
	To      int
	Request any
	Lead    sim.Duration // charged before the send: the requester's own work it waits on (a fault's Translate)

	// Close, when not nil, ends a call with the header that closes it (a
	// fault's ack to the home), taken from it after Wake: it is posted and
	// its send CPU charged as the sequence's last stage, as a Send from the
	// woken thread would.
	Close Closer
}

// Closer builds a call's closing header once its reply is in: the header
// and the host it goes to (Blocking.Close).
type Closer interface {
	Closing() (to int, msg any)
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
	opDone
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
	h, op := t.h, &t.op
	switch t.stage {
	case opLead:
		t.stage = opSend
		if op.Lead != 0 {
			return sim.SleepFor, op.Lead
		}
		fallthrough
	case opSend:
		t.request = h.Post(op.To, op.Request)
		op.Request = nil
		t.stage = opTransmit
		return sim.SleepFor, h.rt.Opt.Net.SendCPU(t.request.Size)
	case opTransmit:
		h.EP.Transmit(t.request)
		t.request = nil
		t.stage = opSuspend
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
		t.stage = opDone
		if op.Close != nil {
			to, m := op.Close.Closing()
			t.request, t.stage = h.Post(to, m), opClosed
			return sim.SleepFor, h.rt.Opt.Net.SendCPU(t.request.Size)
		}
		return sim.Run, 0
	case opClosed:
		h.EP.Transmit(t.request)
		t.request, t.stage = nil, opDone
		fallthrough
	default:
		return sim.Run, 0
	}
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
	panic(fmt.Sprintf("%s: thread %d: %v %#x: %v", t.h.rt.Name, t.ID, kind, va, err))
}

// Read copies len(buf) bytes of shared memory at va into buf, faulting
// and fetching sharing units as the protocol dictates.
func (t *Thread) Read(va uint64, buf []byte) {
	t.checkAccess(vm.Read, va, t.h.AS.Access(t, va, buf, vm.Read))
}

// Write stores data into shared memory at va.
func (t *Thread) Write(va uint64, data []byte) {
	t.checkAccess(vm.Write, va, t.h.AS.Access(t, va, data, vm.Write))
}

// ReadU32 reads a shared little-endian uint32.
func (t *Thread) ReadU32(va uint64) uint32 {
	v, err := t.h.AS.ReadU32(t, va)
	t.checkAccess(vm.Read, va, err)
	return v
}

// WriteU32 writes a shared little-endian uint32.
func (t *Thread) WriteU32(va uint64, v uint32) {
	t.checkAccess(vm.Write, va, t.h.AS.WriteU32(t, va, v))
}

// ReadU64 reads a shared little-endian uint64.
func (t *Thread) ReadU64(va uint64) uint64 {
	v, err := t.h.AS.ReadU64(t, va)
	t.checkAccess(vm.Read, va, err)
	return v
}

// WriteU64 writes a shared little-endian uint64.
func (t *Thread) WriteU64(va uint64, v uint64) {
	t.checkAccess(vm.Write, va, t.h.AS.WriteU64(t, va, v))
}

// ReadF64 reads a shared float64.
func (t *Thread) ReadF64(va uint64) float64 {
	v, err := t.h.AS.ReadF64(t, va)
	t.checkAccess(vm.Read, va, err)
	return v
}

// WriteF64 writes a shared float64.
func (t *Thread) WriteF64(va uint64, v float64) {
	t.checkAccess(vm.Write, va, t.h.AS.WriteF64(t, va, v))
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

	ReadFaults  uint64
	WriteFaults uint64
	Prefetches  uint64
	Barriers    uint64
	LockOps     uint64

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
		st.PrefetchTime - st.SynchTime - st.MallocTime
}

// AppThread is the protocol-independent application API: the surface
// internal/check's workload bodies run on under either consistency class,
// which dsm's Thread has by embedding *Thread.
type AppThread interface {
	Host() int
	NumHosts() int
	NumThreads() int
	ThreadID() int
	Now() sim.Time
	Compute(d sim.Duration)
	ResetStats()

	Malloc(size int) uint64
	Read(va uint64, buf []byte)
	Write(va uint64, data []byte)
	ReadU32(va uint64) uint32
	WriteU32(va uint64, v uint32)
	ReadU64(va uint64) uint64
	WriteU64(va uint64, v uint64)
	ReadF64(va uint64) float64
	WriteF64(va uint64, v float64)

	Barrier()
	Lock(id int)
	Unlock(id int)
}
