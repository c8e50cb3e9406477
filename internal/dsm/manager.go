package dsm

import (
	"fmt"

	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/hostset"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// dirEntry is the manager's directory record for one minipage: who the
// preferred source is, and the transaction state: one write, upgrade or
// push, or reads in flight from one source replica. Which hosts hold
// copies is the minipage's copyset mark (System.copyset). Requests the
// open transaction cannot take are queued here — and only here:
// non-manager hosts never queue (Section 3.3).
type dirEntry struct {
	queue     FIFO
	Competing uint64 // requests that found this entry busy (Figure 7's metric)
	owner     int32  // preferred replica: last writer (or allocator)
	await     int32  // the open reads: how many are in flight,
	src       int32  // and their source replica
	pushAwait int32  // in-flight push
	busy      bool
}

// joins reports whether read m joins the reads open on e: with nothing
// queued ahead of it, no write waits on them.
func (e *dirEntry) joins(m *Msg) bool {
	return m.Type == mReadReq && e.await > 0 && (m.Requeued || e.queue.Peek() == nil)
}

// checkNoReads panics, under -tags invariants, if reads are in flight on
// e as it goes idle or opens a write, upgrade or push.
func (e *dirEntry) checkNoReads() {
	if Invariants && e.await != 0 {
		panic(fmt.Sprintf("dsm: minipage directory entry has %d reads in flight, busy %v", e.await, e.busy))
	}
}

// checkHolders panics, under -tags invariants, if a host outside minipage
// info's copyset maps it as its entry goes idle. A write's copyset is its
// writer from admission, before its invalidations land, so copyset ⊇
// holders holds only while the entry is idle.
func (h *Host) checkHolders(info core.Info) {
	for i, cs := 0, h.sys.copyset(info.ID); Invariants && i < h.sys.NumHosts(); i++ {
		if prot, _ := h.sys.Host(i).Region.ProtOf(info.Base); prot != vm.NoAccess && !cs.Has(i) {
			panic(fmt.Sprintf("dsm: host %d maps minipage %d %v outside its copyset %v", i, info.ID, prot, cs))
		}
	}
}

// ManagerStats aggregates a home's directory activity (Host.Stats). Each
// host is home to the minipages Options.HomeOf places there and runs their
// transactions in its server thread — the job is essentially "to mark and
// forward requests to hosts"; under HomeCentral host 0 is home to every
// minipage and the other hosts' counters stay zero.
type ManagerStats struct {
	ReadReqs          uint64
	WriteReqs         uint64
	Invalidations     uint64 // invalidate requests issued
	CompetingRequests uint64 // requests queued behind an open transaction
	Pushes            uint64
	ExclusiveReads    uint64 // reads under a lock served as write misses (admit)
}

// Directory returns the directory entries homed at this host, indexed by
// minipage id. Entries homed at other hosts are nil (under HomeCentral,
// host 0 has every entry).
func (h *Host) Directory() []*dirEntry {
	dir := make([]*dirEntry, h.sys.mpt.NumMinipages())
	for id := range dir {
		dir[id] = h.entryOrNil(id)
	}
	return dir
}

// dirSlab is how many entries one slab of the directory holds.
const dirSlab = 256

// entry returns the directory entry of minipage id, which this host is
// home to. allocLocal placed it when it carved the minipage.
func (h *Host) entry(id int) *dirEntry { return &h.sys.dir[id/dirSlab][id%dirSlab] }

// The host sets of an SC minipage, one bit a host each in System.marks,
// which allocLocal grows beside the directory: its copyset, and each
// host's own two marks on it.
const (
	copyMark = iota // hosts holding, or about to hold, a valid copy
	rmwMark         // a thread here wrote it to the home under a lock: reads under one go exclusive
	exclMark        // this host holds the only copy and has not written it: a write raises it here
	numMarks
)

// copyset is minipage id's copyset, read and changed in place.
func (s *System) copyset(id int) hostset.Set { return s.marks.Set(id, copyMark) }

func (h *Host) marked(id, k int) bool { return h.sys.marks.Set(id, k).Has(h.ID()) }
func (h *Host) mark(id, k int)        { h.sys.marks.Set(id, k).Add(h.ID()) }
func (h *Host) unmark(id, k int) bool { return h.sys.marks.Set(id, k).Remove(h.ID()) }

// lose drops the excl mark as this host's copy is taken or shared; a copy
// still marked was never written, so its rmw mark goes too: a critical
// section that only reads learns to read shared.
func (h *Host) lose(id int) {
	if h.unmark(id, exclMark) {
		h.unmark(id, rmwMark)
	}
}

// entryOrNil is entry, or nil for a minipage this host is not home to.
func (h *Host) entryOrNil(id int) *dirEntry {
	if id < 0 || id >= h.sys.mpt.NumMinipages() || !h.serves(id) {
		return nil
	}
	return h.entry(id)
}

// serves reports whether this host is minipage id's home.
func (h *Host) serves(id int) bool { return h.homeOf(id) == h.ID() }

// dispatch routes one manager-bound message and returns the tail of its
// handler: the last send, posted, when nothing follows it (row).
// Every function below that returns a *fastmsg.Message returns such a tail.
func (h *Host) dispatch(p *sim.Proc, m *Msg) *fastmsg.Message {
	switch m.Type {
	case mReadReq:
		return h.admit(p, m, &h.Stats.ReadReqs)
	case mWriteReq:
		return h.admit(p, m, &h.Stats.WriteReqs)
	case mPushReq:
		return h.admit(p, m, &h.Stats.Pushes)
	case mAck:
		return h.handleAck(p, m)
	case mPushAck:
		return h.handlePushAck(p, m)
	}
	panic(fmt.Sprintf("dsm: manager got %v", m.Type))
}

// resolve locates the directory entry of a request, which its requester
// translated (Host.route): the home does no lookup. It refreshes the
// translation's extent by id, as a chunk can have grown since.
func (h *Host) resolve(m *Msg) *dirEntry {
	id := m.Info.ID
	if !h.serves(id) {
		panic(fmt.Sprintf("dsm: host %d got request for minipage %d homed at host %d", h.ID(), id, h.homeOf(id)))
	}
	mp, _ := h.sys.mpt.ByID(id)
	m.Info = mp.Info(h.sys.Layout)
	return h.entry(id)
}

// closeTxn ends the open transaction on e and dispatches queued competing
// requests until one reopens the entry and the next cannot join it (or
// the queue drains): the reads at the queue's head go out together, and
// a push that finds nothing to replicate to lets the next one through.
func (h *Host) closeTxn(p *sim.Proc, e *dirEntry, info core.Info) (tail *fastmsg.Message) {
	e.busy = false
	e.checkNoReads()
	h.checkHolders(info)
	for next := e.queue.Peek(); next != nil && (!e.busy || e.joins(next)); next = e.queue.Peek() {
		h.flush(p, tail)
		tail = h.dispatch(p, e.queue.Pop())
	}
	return tail
}

// admit is the front of Figure 3's "Manager: Handle Read Request" and
// "Handle Write Request", and of a push: count it (n is its counter),
// translate, count it competing if the entry is busy, queue it behind an
// open transaction it cannot join, else open one or join it. The effect —
// readEffect, writeEffect, pushEffect — is the rest of the figure's handler.
func (h *Host) admit(p *sim.Proc, m *Msg, n *uint64) *fastmsg.Message {
	if !m.Requeued {
		*n++
	}
	e := h.resolve(m)
	if e.busy && !m.Requeued {
		e.Competing++
		h.Stats.CompetingRequests++
	}
	shared := !m.Excl || m.Requeued || h.sys.copyset(m.Info.ID).Has(m.From) // exclusive unless queued (wanted elsewhere now) or a copy is coming
	if m.Type == mReadReq && (!e.busy && shared || e.joins(m)) {
		return h.readEffect(e, m)
	}
	if e.busy {
		m.Requeued = true
		e.queue.Push(m)
		return nil
	}
	if m.Type == mPushReq && h.sys.NumHosts() == 1 {
		h.recyclePM(m)
		return nil // nothing to replicate to
	}
	e.checkNoReads()
	e.busy = true
	if m.Excl {
		h.Stats.ExclusiveReads++
	}
	if m.Type != mPushReq { // a write, or a read served exclusive
		return h.writeEffect(p, e, m)
	}
	return h.pushEffect(e, m)
}

// readEffect is the directory effect of an admitted read — translate is
// done; pick a replica (the open reads' source, if reads are open), add
// the requester to the copyset, and forward the request itself,
// translation filled in.
func (h *Host) readEffect(e *dirEntry, m *Msg) *fastmsg.Message {
	cs := h.sys.copyset(m.Info.ID)
	if !e.busy {
		e.busy, e.src = true, int32(h.findReplica(e, cs))
	}
	e.await++
	cs.Add(m.From)
	m.Type = mReadFwd
	return h.post(int(e.src), m)
}

// findReplica picks the host in copyset cs to source the minipage from:
// the home itself if it holds a copy, so the forward never leaves it, else
// the owner if it still holds one, else the lowest-numbered replica. Under
// SW/MR every copy in the copyset holds the same bytes.
func (h *Host) findReplica(e *dirEntry, cs hostset.Set) int {
	switch {
	case cs.Has(h.ID()):
		return h.ID()
	case cs.Has(int(e.owner)):
		return int(e.owner)
	case cs.Next(-1) < 0:
		panic("dsm: findReplica on empty copyset")
	}
	return cs.Next(-1)
}

// writeEffect is the directory effect of an admitted write, or of a read
// served exclusive (its requester holds no copy): invalidate every other
// replica, in ascending host order, then have the source (the owner, if it
// still holds a copy) ship the minipage, or grant an upgrade if the
// requester already holds the bytes. The invalidated hosts reply to the
// writer, which the forward tells how many replies to count, so ownership
// and the copyset collapse to the writer now; the entry stays busy, which
// keeps every other handler off the copyset while the sends are charged,
// until the writer's ack, which it sends only once every reply is in.
func (h *Host) writeEffect(p *sim.Proc, e *dirEntry, m *Msg) *fastmsg.Message {
	cs := h.sys.copyset(m.Info.ID)
	to := m.From // the requester, or else the source, keeps its copy
	m.Type = mUpgradeGrant
	if !cs.Has(m.From) {
		to, m.Type = h.findReplica(e, cs), mWriteFwd
	}
	m.Invals = int32(cs.Count() - 1)
	e.owner = int32(m.From)
	h.sys.record(m.Info.ID).add(m.From, m.Epoch) // the home's, read in place by moves
	for i := cs.Next(-1); i >= 0; i = cs.Next(i) {
		if i != to { // each carries the writer's rendezvous for the reply
			h.Stats.Invalidations++
			h.sendNew(p, i, Msg{Type: mInvalidateReq, From: m.From, Info: m.Info, Req: m.Req})
		}
	}
	cs.Reset(m.From)
	return h.post(to, m)
}

// handleAck confirms the transaction of the woken faulting thread and,
// once no read is left in flight, closes the entry and serves the next
// requests.
func (h *Host) handleAck(p *sim.Proc, m *Msg) *fastmsg.Message {
	info := m.Info
	h.recyclePM(m) // the ack ends here
	e := h.entry(info.ID)
	if e.await = max(e.await-1, 0); e.await > 0 {
		return nil
	}
	return h.closeTxn(p, e, info)
}

// allocLocal carves minipage(s) for request m and places their
// directory entries, whose copyset and ownership start at the allocating
// host: its Malloc made the only copy. Like the MPT, the directory is one
// table every host reads in place, so no message carries the entry to its
// home and no request can arrive ahead of it. It runs only on host 0 (the
// allocation authority: the MPT grows nowhere else), behind Host.alloc,
// and checks HomeOf's answer for each id before anything else asks it.
func (h *Host) allocLocal(m *Msg) error {
	s, mpt, from := h.sys, h.sys.mpt, m.From
	firstNew := mpt.NumMinipages()
	mp, va, err := mpt.Alloc(m.Size)
	if err != nil {
		return err
	}
	s.checkHomes(firstNew, mpt.NumMinipages())
	s.marks.Grow(mpt.NumMinipages())
	for id := firstNew; id < mpt.NumMinipages(); id++ {
		for len(s.dir)*dirSlab <= id {
			s.dir = append(s.dir, make([]dirEntry, dirSlab))
		}
		s.dir[id/dirSlab][id%dirSlab] = dirEntry{owner: int32(from)}
		s.copyset(id).Reset(from)
	}

	// Does the requester own the minipage (and so get it writable with
	// no fault)? Fresh minipages: always — nobody else can hold a copy
	// yet, and at page grain that includes each later page the allocation
	// spans: Info covers the owned run. Chunk-extended minipages whose
	// directory is served here: if the live entry is idle and the requester
	// holds its only copy (an owner with readers would write past their
	// copies). Served elsewhere: conservatively no — the first write faults
	// to the home instead, which keeps SW/MR without another round-trip
	// from the allocation path.
	e := h.entryOrNil(mp.ID)
	owner := mp.ID >= firstNew || e != nil && !e.busy && s.copyset(mp.ID).Only(from)
	info := mp.Info(h.sys.Layout)
	if hi, _ := mpt.ByID(mpt.NumMinipages() - 1); hi.ID > mp.ID {
		lo, _ := mpt.ByID(firstNew)
		if owner {
			lo = mp
		}
		info, owner = lo.Info(h.sys.Layout), true
		info.Size = hi.Off + hi.Size - lo.Off
	}
	m.Addr, m.Info, m.Owner = va, info, owner
	return nil
}

// pushEffect is the directory effect of an admitted push: order the owner
// to replicate the minipage to all hosts.
func (h *Host) pushEffect(e *dirEntry, m *Msg) *fastmsg.Message {
	e.pushAwait = int32(h.sys.NumHosts() - 1)
	src := h.findReplica(e, h.sys.copyset(m.Info.ID))
	m.Type = mPushOrder // the request itself goes on to the owner
	return h.post(src, m)
}

// handlePushAck completes the push once every other host holds a copy.
func (h *Host) handlePushAck(p *sim.Proc, m *Msg) *fastmsg.Message {
	info, from := m.Info, m.From
	h.recyclePM(m) // the push ack ends here
	e := h.entry(info.ID)
	h.sys.copyset(info.ID).Add(from)
	if e.pushAwait--; e.pushAwait > 0 {
		return nil
	}
	return h.closeTxn(p, e, info)
}
