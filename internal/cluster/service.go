package cluster

import (
	"fmt"

	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/sim"
)

// Coordinator is the host that runs the paper's three protocol-independent
// manager jobs (Sections 3.3-3.4): the malloc-like allocator, barriers
// and FIFO locks. The four thread operations below and the handlers
// behind them are the whole of it, under every protocol.
const Coordinator = 0

// SvcType enumerates the service messages.
type SvcType uint8

const (
	SvcAllocReq SvcType = iota
	SvcAllocReply
	SvcBarrierArrive
	SvcBarrierRelease
	SvcLockReq
	SvcLockGrant
	SvcUnlock
)

func (t SvcType) String() string { return svcTable.Rows[t].Name }

// SvcMsg is the service header, pooled per cluster. A request turns
// around in place as its answer, so the header a thread sends is the one
// that wakes it, and the thread recycles it once it has read the answer.
// Service traffic concerns no sharing unit: traces show it with mp=-1, no
// address and no home.
type SvcMsg struct {
	PoolState // recycled mark under -tags invariants; empty otherwise

	Type   SvcType
	From   int   // the requesting host, on the way out and back
	FW     *Wait // requester-local rendezvous
	LockID int
	Size   int        // SvcAllocReq
	Alloc  Allocation // SvcAllocReply

	// Ext is a release-consistent protocol's piggyback (vector clock,
	// write notices), attached in Consistency.Release, read and refilled
	// by the coordinator's NoticeLog and consumed in Consistency.Acquire.
	Ext any
}

// Allocation is what HostHandler.Alloc hands out.
type Allocation struct {
	VA    uint64
	Info  core.Info // the sharing unit the bytes landed in; zero without one
	Owner bool      // the requester may map the unit writable at once
	Home  int       // the unit's home host, where the protocol has one
}

// Consistency is optionally implemented by a release-consistent
// protocol's HostHandler. Both run in the synchronizing thread (ctx is
// its wrapper): Release before a BARRIER_ARRIVE, LOCK_REQUEST or UNLOCK
// leaves, Acquire once the BARRIER_RELEASE or LOCK_GRANT has woken it,
// with the header that came back.
type Consistency interface {
	Release(ctx any, m *SvcMsg)
	Acquire(ctx any, m *SvcMsg)
}

// NoticeLog is optionally implemented by the coordinator's HostHandler
// when synchronization carries consistency information (lrc-mw's write
// notices), all in m.Ext: Released sees every BARRIER_ARRIVE and UNLOCK
// as it arrives, Granting a LOCK_REQUEST about to turn into its grant,
// Converged the arrivals of a completed barrier episode before they turn
// into releases.
type NoticeLog interface {
	Released(m *SvcMsg)
	Granting(m *SvcMsg)
	Converged(arrivals []*SvcMsg)
}

// services is the coordinator's state plus the cluster's header pool.
type services struct {
	barrier BarrierService
	locks   LockService
	free    Pool[SvcMsg]
}

// Totals returns the counters the kernel keeps itself; a protocol's
// Totals starts from it.
func (rt *Runtime) Totals() Totals {
	return Totals{BarrierEpisodes: rt.svc.barrier.Episodes, LockAcquisitions: rt.svc.locks.Acquisitions}
}

// Misuse reports an application's misuse of a service, or of an Options
// function a protocol found out about at run time (HomeOf): it surfaces
// from Run naming the protocol, the host concerned and what was asked.
func (rt *Runtime) Misuse(from int, format string, args ...any) {
	panic(fmt.Sprintf("%s: host %d: %s", rt.Name, from, fmt.Sprintf(format, args...)))
}

func (h *Host) newSvc(typ SvcType, lock int) *SvcMsg {
	m := h.rt.svc.free.Get()
	*m = SvcMsg{Type: typ, From: h.id, LockID: lock}
	return m
}

// alloc runs the protocol's allocator on the coordinator for host from.
func (h *Host) alloc(p *sim.Proc, from, size int, local bool) Allocation {
	a, err := h.handler.Alloc(p, from, size, local)
	if err != nil {
		h.rt.Misuse(from, "Malloc(%d): %v", size, err)
	}
	return a
}

// Malloc allocates size bytes of shared memory and returns the address,
// like the paper's malloc-like API: the pointer is used normally
// afterwards; sharing is managed underneath. On the coordinator it is an
// in-process call, as in the real library; elsewhere one round trip.
func (t *Thread) Malloc(size int) uint64 {
	h := t.h
	start := t.p.Now()
	if size <= 0 {
		h.rt.Misuse(h.id, "Malloc(%d): size must be positive", size)
	}
	var a Allocation
	if h.id == Coordinator {
		a = h.alloc(t.p, h.id, size, true)
		h.handler.Mapped(t.p, a)
	} else {
		m := h.newSvc(SvcAllocReq, 0)
		m.Size = size
		t.call(m, "malloc reply")
		a = m.Alloc
		h.rt.svc.free.Put(m)
	}
	t.Stats.MallocTime += t.p.Now().Sub(start)
	return a.VA
}

// call sends request m to the coordinator and blocks until its answer.
func (t *Thread) call(m *SvcMsg, what string) {
	fw := t.WaitSlot()
	m.FW = fw
	t.Block(Blocking{For: what, FW: fw, Wake: t.h.rt.Opt.Costs.ThreadWake, To: Coordinator, Request: m})
}

// release and acquire run the protocol's consistency hooks, if it has
// any, around a synchronization; acquire ends the answer's header.
func (t *Thread) release(m *SvcMsg) {
	if c := t.h.cons; c != nil {
		c.Release(t.self, m)
	}
}

func (t *Thread) acquire(m *SvcMsg) {
	if c := t.h.cons; c != nil {
		c.Acquire(t.self, m)
	}
	t.h.rt.svc.free.Put(m)
}

// Barrier blocks until every application thread in the cluster arrives.
func (t *Thread) Barrier() {
	start := t.p.Now()
	m := t.h.newSvc(SvcBarrierArrive, 0)
	t.release(m)
	t.p.Sleep(t.h.rt.Opt.Costs.BarrierBase)
	t.call(m, "barrier release")
	t.acquire(m)
	t.Stats.SynchTime += t.p.Now().Sub(start)
	t.Stats.Barriers++
}

// Lock acquires the cluster-wide lock with the given id (FIFO at the
// coordinator).
func (t *Thread) Lock(id int) {
	start := t.p.Now()
	m := t.h.newSvc(SvcLockReq, id)
	t.release(m)
	t.call(m, "lock grant")
	t.acquire(m)
	t.Stats.SynchTime += t.p.Now().Sub(start)
	t.Stats.LockOps++
}

// Unlock releases the lock with the given id. The release is
// asynchronous; the coordinator grants it to the next waiter in FIFO
// order.
func (t *Thread) Unlock(id int) {
	start := t.p.Now()
	m := t.h.newSvc(SvcUnlock, id)
	t.release(m)
	t.h.Send(t.p, Coordinator, m)
	t.Stats.SynchTime += t.p.Now().Sub(start)
	t.Stats.LockOps++
}

// svcTable is the kernel's message table. Setting an event, granting a
// lock or queueing its request never waits (nor does the NoticeLog): those
// rows run in engine context, a grant as the tail.
var svcTable = Register(MsgTable[*Host, *SvcMsg]{Rows: []MsgSpec[*Host, *SvcMsg]{
	SvcAllocReq:       {Name: "ALLOC_REQUEST", Handle: (*Host).allocRequest},
	SvcAllocReply:     {Name: "ALLOC_REPLY", Handle: (*Host).allocReply},
	SvcBarrierArrive:  {Name: "BARRIER_ARRIVE", Handle: (*Host).barrierArrive},
	SvcBarrierRelease: {Name: "BARRIER_RELEASE", Handle: (*Host).answer, Engine: true},
	SvcLockReq:        {Name: "LOCK_REQUEST", Handle: (*Host).lockRequest, Engine: true},
	SvcLockGrant:      {Name: "LOCK_GRANT", Handle: (*Host).answer, Engine: true},
	SvcUnlock:         {Name: "UNLOCK", Handle: (*Host).unlock, Engine: true},
}, Describe: func(*Host, *SvcMsg) (int, uint64, int) { return -1, 0, -1 }})

func (m *SvcMsg) Table() (Table, int) { return svcTable, int(m.Type) }

// request is a service request's header, at the coordinator only.
func (h *Host) request(m *SvcMsg) *SvcMsg {
	if h.id != Coordinator {
		panic(fmt.Sprintf("%s: host %d received %v", h.rt.Name, h.id, m.Type))
	}
	return m
}

func (h *Host) allocRequest(p *sim.Proc, m *SvcMsg, _ *fastmsg.Message) *fastmsg.Message {
	h.request(m).Alloc = h.alloc(p, m.From, m.Size, false)
	m.Type = SvcAllocReply
	return h.Post(m.From, m)
}

func (h *Host) allocReply(p *sim.Proc, m *SvcMsg, fm *fastmsg.Message) *fastmsg.Message {
	h.handler.Mapped(p, m.Alloc)
	return h.answer(p, m, fm)
}

// answer wakes the requester, which reads the answer and recycles it.
func (h *Host) answer(_ *sim.Proc, m *SvcMsg, _ *fastmsg.Message) *fastmsg.Message {
	m.FW.Ev.Set()
	return nil
}

func (h *Host) barrierArrive(p *sim.Proc, m *SvcMsg, _ *fastmsg.Message) (tail *fastmsg.Message) {
	h.request(m)
	if h.log != nil {
		h.log.Released(m)
	}
	arrivals, done := h.rt.svc.barrier.Arrive(m, h.rt.totalThreads)
	if !done {
		return nil
	}
	if h.log != nil {
		h.log.Converged(arrivals)
	}
	for _, a := range arrivals {
		h.Flush(p, tail)
		a.Type = SvcBarrierRelease
		tail = h.Post(a.From, a)
	}
	return tail
}

func (h *Host) lockRequest(_ *sim.Proc, m *SvcMsg, _ *fastmsg.Message) *fastmsg.Message {
	if h.rt.svc.locks.Acquire(h.request(m)) {
		return h.grant(m)
	}
	return nil // queued: the table holds m until an unlock pops it
}

func (h *Host) unlock(_ *sim.Proc, m *SvcMsg, _ *fastmsg.Message) *fastmsg.Message {
	svc := &h.rt.svc
	h.request(m)
	if h.log != nil {
		h.log.Released(m)
	}
	next, err := svc.locks.Release(m.LockID, m.From)
	if err != nil {
		h.rt.Misuse(m.From, "%v", err)
	}
	svc.free.Put(m)
	if next == nil {
		return nil
	}
	return h.grant(next)
}

// grant turns a lock request around as its grant.
func (h *Host) grant(m *SvcMsg) *fastmsg.Message {
	if h.log != nil {
		h.log.Granting(m)
	}
	m.Type = SvcLockGrant
	return h.Post(m.From, m)
}
