package dsm

import (
	"slices"

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
	Link[SvcMsg]

	Type   SvcType
	From   int   // the requesting host, on the way out and back
	FW     *Wait // requester-local rendezvous
	LockID int
	Size   int        // SvcAllocReq
	Alloc  Allocation // SvcAllocReply
	Group  []*SvcMsg  // a barrier group: what its tree node collected, up and back down

	// Ext is the class's piggyback: lrc-mw's vector clock and write
	// notices, attached in mwRelease, read and refilled on the coordinator
	// and consumed in mwAcquire; a barrier release's home moves under both.
	Ext *mwSync
}

// Allocation is what the allocator (Host.alloc) hands out.
type Allocation struct {
	VA    uint64
	Info  core.Info // the sharing unit the bytes landed in; zero without one
	Owner bool      // the requester may map the unit writable at once
}

// services is the coordinator's state plus the cluster's header pool.
type services struct {
	episodes uint64    // completed barrier episodes
	arrivals []*SvcMsg // the episode's threads, for converged
	locks    LockService
	free     Pool[SvcMsg]
}

func (h *Host) newSvc(typ SvcType, lock int) *SvcMsg {
	m := h.sys.svc.free.Get()
	*m = SvcMsg{Type: typ, From: h.id, LockID: lock}
	return m
}

// Malloc allocates size bytes of shared memory and returns the address,
// like the paper's malloc-like API: the pointer is used normally
// afterwards; sharing is managed underneath. On the coordinator it is an
// in-process call, as in the real library; elsewhere one round trip.
func (t *Thread) Malloc(size int) uint64 {
	h := t.host
	start := t.p.Now()
	if size <= 0 {
		h.sys.misuse(h.id, "Malloc(%d): size must be positive", size)
	}
	var a Allocation
	if h.id == Coordinator {
		a = h.alloc(t.p, h.id, size, true)
		h.mapped(t.p, a)
	} else {
		m := h.newSvc(SvcAllocReq, 0)
		m.Size = size
		t.ask(Coordinator, m, "malloc reply")
		a = m.Alloc
		h.sys.svc.free.Put(m)
	}
	t.Stats.MallocTime += t.p.Now().Sub(start)
	return a.VA
}

// ask sends request m to host `to` and blocks until its answer.
func (t *Thread) ask(to int, m *SvcMsg, what string) {
	fw := t.WaitSlot()
	m.FW = fw
	t.Block(Blocking{For: what, FW: fw, Wake: t.host.Costs().ThreadWake, To: to, Request: m})
}

// syncRelease runs lrc-mw's release half as synchronization m leaves (SC
// has none); syncAcquire the class's acquire half once m's answer has
// woken the thread — under SC a barrier release's home moves — and ends
// the answer's header.
func (t *Thread) syncRelease(m *SvcMsg) {
	if t.host.sys.mw {
		t.mwRelease(m)
	}
}

func (t *Thread) syncAcquire(m *SvcMsg) {
	switch h := t.host; {
	case h.sys.mw:
		t.mwAcquire(m)
	case m.Type == SvcBarrierRelease:
		h.adopt(t.p, h.ext(m))
	}
	t.host.sys.svc.free.Put(m)
}

// Barrier blocks until every application thread in the cluster arrives.
func (t *Thread) Barrier() {
	start := t.p.Now()
	m := t.host.newSvc(SvcBarrierArrive, 0)
	t.syncRelease(m)
	t.p.Sleep(t.host.Costs().BarrierBase)
	t.ask(t.host.node, m, "barrier release")
	t.syncAcquire(m)
	t.Stats.SynchTime += t.p.Now().Sub(start)
	t.Stats.Barriers++
}

// Lock acquires the cluster-wide lock with the given id (FIFO at the
// coordinator).
func (t *Thread) Lock(id int) {
	start := t.p.Now()
	m := t.host.newSvc(SvcLockReq, id)
	t.syncRelease(m)
	t.ask(Coordinator, m, "lock grant")
	t.syncAcquire(m)
	t.locks++
	t.Stats.SynchTime += t.p.Now().Sub(start)
}

// Unlock releases the lock with the given id. The release is
// asynchronous; the coordinator grants it to the next waiter in FIFO
// order.
func (t *Thread) Unlock(id int) {
	start := t.p.Now()
	m := t.host.newSvc(SvcUnlock, id)
	t.locks--
	t.syncRelease(m)
	t.Send(Coordinator, m)
	t.Stats.SynchTime += t.p.Now().Sub(start)
}

// svcTable is the coordinator's message table. Setting an event, collecting or
// releasing a barrier, granting a lock or queueing its request never waits
// (nor does the coordinator's class work): those rows run in engine
// context, the last send as the tail.
var svcTable = Register(MsgTable[*SvcMsg]{Rows: []MsgSpec[*SvcMsg]{
	SvcAllocReq:       {Name: "ALLOC_REQUEST", Handle: (*Host).allocRequest},
	SvcAllocReply:     {Name: "ALLOC_REPLY", Handle: (*Host).allocReply},
	SvcBarrierArrive:  {Name: "BARRIER_ARRIVE", Handle: (*Host).barrierArrive, Engine: true},
	SvcBarrierRelease: {Name: "BARRIER_RELEASE", Handle: (*Host).barrierRelease, Engine: true},
	SvcLockReq:        {Name: "LOCK_REQUEST", Handle: (*Host).lockRequest, Engine: true},
	SvcLockGrant:      {Name: "LOCK_GRANT", Handle: (*Host).answer, Engine: true},
	SvcUnlock:         {Name: "UNLOCK", Handle: (*Host).unlock, Engine: true},
}, Describe: func(*Host, *SvcMsg) (int, uint64, int) { return -1, 0, -1 }})

func (m *SvcMsg) Table() (Table, int) { return svcTable, int(m.Type) }

func (h *Host) allocRequest(p *sim.Proc, m *SvcMsg, _ *fastmsg.Message) *fastmsg.Message {
	m.Alloc = h.alloc(p, m.From, m.Size, false)
	m.Type = SvcAllocReply
	return h.Post(m.From, m)
}

func (h *Host) allocReply(p *sim.Proc, m *SvcMsg, fm *fastmsg.Message) *fastmsg.Message {
	h.mapped(p, m.Alloc)
	return h.answer(p, m, fm)
}

// answer wakes the requester, which reads the answer and recycles it.
func (h *Host) answer(_ *sim.Proc, m *SvcMsg, _ *fastmsg.Message) *fastmsg.Message {
	m.FW.Ev.Set()
	return nil
}

// fanIn is the barrier tree's: host h's children are hosts 8h+1 to 8h+8,
// so up to 9 hosts it is the star (DESIGN.md, "The barrier tree").
const fanIn = 8

// barrierTree places host id of n with tph threads a host: where its
// threads arrive (itself, if it is the root or has children, else its
// parent), its parent (-1 at the root) and how many arrivals it collects an
// episode (0 on a leaf), a thread's or a child node's group.
func barrierTree(id, n, tph int) (node, parent, expect int) {
	inner := func(h int) bool { return h == 0 || fanIn*h+1 < n }
	node, parent = id, (id+fanIn-1)/fanIn-1
	if !inner(id) {
		return parent, parent, 0
	}
	for c := fanIn*id + 1; c <= fanIn*id+fanIn && c < n; c++ {
		expect += tph
		if inner(c) {
			expect += 1 - tph // one group
		}
	}
	return node, parent, expect + tph
}

// barrierArrive collects a thread's arrival, or a child node's group, at
// its tree node. With the last the node's group goes up or, at the root,
// the episode is complete and turns around as the releases.
func (h *Host) barrierArrive(_ *sim.Proc, m *SvcMsg, _ *fastmsg.Message) *fastmsg.Message {
	if h.id == Coordinator {
		h.logArrival(m)
	}
	if h.got = append(h.got, m); len(h.got) < h.expect {
		return nil
	}
	g := h.newSvc(SvcBarrierArrive, 0)
	if g.Group = h.got; h.id != Coordinator {
		return h.Post(h.parent, g)
	}
	svc := &h.sys.svc
	svc.episodes++
	h.converged(svc.arrivals)
	svc.arrivals = svc.arrivals[:0]
	return h.barrierRelease(nil, g, nil)
}

// logArrival shows lrc-mw's released every thread's arrival m carries,
// itself or in its group, and keeps them for converged.
func (h *Host) logArrival(m *SvcMsg) {
	if m.Group == nil {
		if h.sys.mw {
			h.released(m)
		}
		h.sys.svc.arrivals = append(h.sys.svc.arrivals, m)
	}
	for _, a := range m.Group {
		h.logArrival(a)
	}
}

// barrierRelease wakes a released thread or, for a group, releases what its
// node collected: groups first, the largest first, as they have further to
// go, then threads in the order they came.
func (h *Host) barrierRelease(_ *sim.Proc, m *SvcMsg, _ *fastmsg.Message) (tail *fastmsg.Message) {
	if m.Group == nil {
		return h.answer(nil, m, nil)
	}
	h.sys.svc.free.Put(m)
	slices.SortStableFunc(h.got, func(a, b *SvcMsg) int { return len(b.Group) - len(a.Group) })
	for _, a := range h.got {
		h.Flush(nil, tail)
		a.Type = SvcBarrierRelease
		tail = h.Post(a.From, a)
	}
	h.got = h.got[:0]
	return tail
}

func (h *Host) lockRequest(_ *sim.Proc, m *SvcMsg, _ *fastmsg.Message) *fastmsg.Message {
	if h.sys.svc.locks.Acquire(m) {
		return h.grant(m)
	}
	return nil // queued: the table holds m until an unlock pops it
}

func (h *Host) unlock(_ *sim.Proc, m *SvcMsg, _ *fastmsg.Message) *fastmsg.Message {
	svc := &h.sys.svc
	if h.sys.mw {
		h.released(m)
	}
	next, err := svc.locks.Release(m.LockID, m.From)
	if err != nil {
		h.sys.misuse(m.From, "%v", err)
	}
	svc.free.Put(m)
	if next == nil {
		return nil
	}
	return h.grant(next)
}

// grant turns a lock request around as its grant.
func (h *Host) grant(m *SvcMsg) *fastmsg.Message {
	if h.sys.mw {
		h.granting(m)
	}
	m.Type = SvcLockGrant
	return h.Post(m.From, m)
}
