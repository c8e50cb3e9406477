package dsm

import (
	"slices"

	"millipage/internal/fastmsg"
	"millipage/internal/sim"
)

// Coordinator is the host that runs the paper's three protocol-independent
// manager jobs (Sections 3.3-3.4): the malloc-like allocator, barriers
// and FIFO locks. The four thread operations below and the handlers
// behind them are the whole of it, under every protocol.
const Coordinator = 0

// services is the coordinator's state.
type services struct {
	episodes uint64 // completed barrier episodes
	arrivals []*Msg // the episode's threads, for converged
	locks    LockService
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
	m := h.allocPM(Msg{Type: mAllocReq, From: h.id, Size: size})
	if h.id == Coordinator {
		h.alloc(t.p, m, true)
		h.mapped(t.p, m)
	} else {
		t.call(Coordinator, m, blocking{For: "malloc reply", Wake: h.Costs().ThreadWake})
	}
	va := m.Addr
	h.recyclePM(m)
	t.Stats.MallocTime += t.p.Now().Sub(start)
	return va
}

// syncRelease runs lrc-mw's release half as synchronization m leaves (SC
// has none); syncAcquire the class's acquire half once m's answer has
// woken the thread — under SC a barrier release's home moves — and ends
// the answer's header.
func (t *Thread) syncRelease(m *Msg) {
	if t.host.sys.mw {
		t.mwRelease(m)
	}
}

func (t *Thread) syncAcquire(m *Msg) {
	switch h := t.host; {
	case h.sys.mw:
		t.mwAcquire(m)
	case m.Type == mBarrierRelease:
		h.adopt(t.p, h.ext(m))
	}
	t.host.recyclePM(m)
}

// Barrier blocks until every application thread in the cluster arrives.
func (t *Thread) Barrier() {
	start := t.p.Now()
	m := t.host.allocPM(Msg{Type: mBarrierArrive, From: t.host.id})
	t.syncRelease(m)
	t.p.Sleep(t.host.Costs().BarrierBase)
	t.call(t.host.node, m, blocking{For: "barrier release", Wake: t.host.Costs().ThreadWake})
	t.syncAcquire(m)
	t.Stats.SynchTime += t.p.Now().Sub(start)
	t.Stats.Barriers++
}

// Lock acquires the cluster-wide lock with the given id (FIFO at the
// coordinator).
func (t *Thread) Lock(id int) {
	start := t.p.Now()
	m := t.host.allocPM(Msg{Type: mLockReq, From: t.host.id, LockID: id})
	t.syncRelease(m)
	t.call(Coordinator, m, blocking{For: "lock grant", Wake: t.host.Costs().ThreadWake})
	t.syncAcquire(m)
	t.locks++
	t.Stats.SynchTime += t.p.Now().Sub(start)
}

// Unlock releases the lock with the given id. The release is
// asynchronous; the coordinator grants it to the next waiter in FIFO
// order.
func (t *Thread) Unlock(id int) {
	start := t.p.Now()
	m := t.host.allocPM(Msg{Type: mUnlock, From: t.host.id, LockID: id})
	t.locks--
	t.syncRelease(m)
	t.host.send(t.p, Coordinator, m)
	t.Stats.SynchTime += t.p.Now().Sub(start)
}

func (h *Host) allocRequest(p *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	h.alloc(p, m, false)
	m.Type = mAllocReply
	return h.post(m.From, m)
}

func (h *Host) allocReply(p *sim.Proc, m *Msg, fm *fastmsg.Message) *fastmsg.Message {
	h.mapped(p, m)
	return h.answer(p, m, fm)
}

// answer wakes the requester, which reads the answer and recycles it.
func (h *Host) answer(_ *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	m.Req.ev.Set()
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
func (h *Host) barrierArrive(_ *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	if h.id == Coordinator {
		h.logArrival(m)
	}
	if h.got = append(h.got, m); len(h.got) < h.expect {
		return nil
	}
	g := h.allocPM(Msg{Type: mBarrierArrive, From: h.id})
	if g.Group = h.got; h.id != Coordinator {
		return h.post(h.parent, g)
	}
	svc := &h.sys.svc
	svc.episodes++
	h.converged(svc.arrivals)
	svc.arrivals = svc.arrivals[:0]
	return h.barrierRelease(nil, g, nil)
}

// logArrival shows lrc-mw's released every thread's arrival m carries,
// itself or in its group, and keeps them for converged.
func (h *Host) logArrival(m *Msg) {
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
func (h *Host) barrierRelease(_ *sim.Proc, m *Msg, _ *fastmsg.Message) (tail *fastmsg.Message) {
	if m.Group == nil {
		return h.answer(nil, m, nil)
	}
	h.recyclePM(m)
	slices.SortStableFunc(h.got, func(a, b *Msg) int { return len(b.Group) - len(a.Group) })
	for _, a := range h.got {
		h.flush(nil, tail)
		a.Type = mBarrierRelease
		tail = h.post(a.From, a)
	}
	h.got = h.got[:0]
	return tail
}

func (h *Host) lockRequest(_ *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	if h.sys.svc.locks.Acquire(m) {
		return h.grant(m)
	}
	return nil // queued: the table holds m until an unlock pops it
}

func (h *Host) unlock(_ *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	svc := &h.sys.svc
	if h.sys.mw {
		h.released(m)
	}
	next, err := svc.locks.Release(m.LockID, m.From)
	if err != nil {
		h.sys.misuse(m.From, "%v", err)
	}
	h.recyclePM(m)
	if next == nil {
		return nil
	}
	return h.grant(next)
}

// grant turns a lock request around as its grant.
func (h *Host) grant(m *Msg) *fastmsg.Message {
	if h.sys.mw {
		h.granting(m)
	}
	m.Type = mLockGrant
	return h.post(m.From, m)
}
