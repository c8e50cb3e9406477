package dsm

import (
	"fmt"

	"millipage/internal/cluster"
	"millipage/internal/core"
	"millipage/internal/hostset"
	"millipage/internal/sim"
)

// dirEntry is the manager's directory record for one minipage: which
// hosts hold copies, who the preferred source is, and the transaction
// state. Requests arriving while a transaction is open are queued here —
// and only here: non-manager hosts never queue (Section 3.3).
type dirEntry struct {
	copyset hostset.Set // hosts holding a valid copy
	owner   int         // preferred replica: last writer (or allocator)

	busy  bool
	queue cluster.FIFO[*pmsg]

	// In-flight write invalidation.
	pendingWrite *pmsg
	invAwait     int
	upgrade      bool // pending write is an upgrade (requester already has the bytes)
	writeSrc     int  // source replica once invalidations finish

	// In-flight push.
	pushAwait int

	// Replicated-management state; nil unless Options.Replication, which
	// keeps the record most runs allocate by the ten thousand near 200
	// bytes instead of 800 (see replEntry).
	repl *replEntry

	Competing uint64 // requests that found this entry busy (Figure 7's metric)
}

// ManagerStats aggregates the manager's protocol activity.
type ManagerStats struct {
	ReadReqs          uint64
	WriteReqs         uint64
	Invalidations     uint64 // invalidate requests issued
	CompetingRequests uint64 // requests queued behind an open transaction
	Allocs            uint64
	Pushes            uint64
}

// manager is one host's directory shard: the transaction state for every
// minipage homed at that host. Its handlers run in the host's server
// thread; the job is essentially "to mark and forward requests to hosts".
// Host 0's instance is additionally the allocation authority (the MPT
// grows only there). Under Central management host 0 is home to every
// minipage and the other shards stay empty.
type manager struct {
	sys *System
	me  int // the host this shard runs on

	// dir is sparse: index = minipage id; nil for minipages homed
	// elsewhere (or whose DIR_INIT has not arrived yet).
	dir []*dirEntry

	// waitInit holds requests that reached this home before the
	// allocation authority's DIR_INIT seeded the shard entry (message
	// ordering across sender pairs is not guaranteed).
	waitInit map[int][]*pmsg

	// dirInited (allocation authority only) counts minipages whose
	// directory entries have been placed, locally or via DIR_INIT.
	dirInited int

	// Retry dedup, keyed by requesting thread id (transaction numbers are
	// monotone per thread). done is the highest transaction this shard has
	// seen acked; inflight the highest it has admitted. A request whose
	// Txn is at or below either is a duplicate — created by a retry timer
	// or crash recovery — and is dropped, never redone: redoing a write
	// transaction would re-ship bytes over the requester's post-install
	// stores. Both maps move only under fault injection (Txn == 0 and
	// the maps stay empty on the clean path).
	done     map[int]uint64
	inflight map[int]uint64

	// DupRequests counts dropped duplicates (chaos-test observability).
	DupRequests uint64

	// deArena slab-allocates directory entries: one entry per minipage
	// adds up to tens of thousands of records per run.
	deArena []dirEntry

	Stats ManagerStats
}

func newManager(s *System, me int) *manager {
	return &manager{
		sys: s, me: me,
		waitInit: make(map[int][]*pmsg),
		done:     make(map[int]uint64),
		inflight: make(map[int]uint64),
	}
}

// MPT exposes the minipage table (for statistics and tests).
func (mg *manager) MPT() *core.MPT { return mg.sys.mpt }

// Directory returns the shard's directory entries, indexed by minipage
// id. Entries homed at other hosts are nil (under Central management,
// host 0's shard has every entry).
func (mg *manager) Directory() []*dirEntry { return mg.dir }

// Copyset returns the copyset and owner of minipage id.
func (e *dirEntry) Copyset() (hostset.Set, int) { return e.copyset, e.owner }

// Busy reports whether a transaction is open on the entry.
func (e *dirEntry) Busy() bool { return e.busy }

func (mg *manager) host() *Host  { return mg.sys.Host(mg.me) }
func (mg *manager) costs() Costs { return mg.sys.Opt.Costs }
func (mg *manager) entry(id int) *dirEntry {
	if e := mg.entryOrNil(id); e != nil {
		return e
	}
	panic(fmt.Sprintf("dsm: host %d has no directory entry for minipage %d", mg.me, id))
}

func (mg *manager) entryOrNil(id int) *dirEntry {
	if id < 0 || id >= len(mg.dir) {
		return nil
	}
	return mg.dir[id]
}

func (mg *manager) setEntry(id int, e *dirEntry) {
	for len(mg.dir) <= id {
		mg.dir = append(mg.dir, nil)
	}
	mg.dir[id] = e
}

// newEntry carves a directory entry out of the shard's slab arena.
func (mg *manager) newEntry(copyset hostset.Set, owner int) *dirEntry {
	if len(mg.deArena) == 0 {
		mg.deArena = make([]dirEntry, 256)
	}
	e := &mg.deArena[0]
	mg.deArena = mg.deArena[1:]
	e.copyset = copyset
	e.owner = owner
	if rp := mg.sys.replAt(mg.me); rp != nil {
		e.repl = rp.newReplEntry()
	}
	return e
}

// dropDup reports whether m is a duplicate of a transaction this shard
// has already admitted or completed, recording fresh admissions as it
// goes. A requeued message was admitted before it was queued, so it
// skips the admission check — but not the completion check: if a twin
// of a queued copy already ran to completion, re-dispatching this copy
// would reopen a closed transaction against stale directory state.
func (mg *manager) dropDup(m *pmsg) bool {
	if m.Txn == 0 {
		return false
	}
	if mg.done[m.TID] >= m.Txn && !m.Redrive {
		mg.DupRequests++
		return true
	}
	if m.Requeued {
		return false
	}
	if mg.inflight[m.TID] >= m.Txn && !m.Redrive {
		mg.DupRequests++
		return true
	}
	if mg.inflight[m.TID] < m.Txn {
		mg.inflight[m.TID] = m.Txn
	}
	return false
}

// dispatch routes one manager-bound message.
func (mg *manager) dispatch(p *sim.Proc, m *pmsg) {
	switch m.Type {
	case mReadReq, mWriteReq:
		if mg.dropDup(m) {
			mg.host().recyclePM(m)
			return
		}
		if m.Type == mReadReq {
			mg.handleRead(p, m)
		} else {
			mg.handleWrite(p, m)
		}
	case mAck:
		mg.handleAck(p, m)
	case mInvalidateReply:
		mg.handleInvReply(p, m)
	case mPushReq:
		mg.handlePush(p, m)
	case mPushAck:
		mg.handlePushAck(p, m)
	case mDirInit:
		mg.handleDirInit(p, m)
	default:
		panic(fmt.Sprintf("dsm: manager got %v", m.Type))
	}
}

// resolve performs the directory side of Figure 3's Translate step and
// locates the shard entry. Under Central management the manager always
// does the MPT lookup itself (the request carries only the fault
// address); under HomeBased management the requester has already
// resolved the address against its MPT replica and filled m.Info, so
// the home only fetches its entry. ok is false when the request had to
// be parked until the allocation authority's DIR_INIT arrives.
func (mg *manager) resolve(p *sim.Proc, m *pmsg) (e *dirEntry, ok bool) {
	if mg.sys.Opt.Management == Central || m.Info.Size == 0 {
		p.Sleep(mg.costs().MPTLookup)
		mp, found := mg.sys.mpt.Lookup(m.Addr)
		if !found {
			panic(fmt.Sprintf("dsm: access violation: %#x is not in any minipage", m.Addr))
		}
		m.Info = mp.Info(mg.sys.Layout)
	}
	id := m.Info.ID
	if home := mg.sys.homeOf(id); home != mg.me && mg.sys.replAt(mg.me) == nil {
		// Under replication a promoted backup legitimately serves shards
		// homed elsewhere; dispatchDir already gated on serving state.
		panic(fmt.Sprintf("dsm: host %d got request for minipage %d homed at host %d", mg.me, id, home))
	}
	if e := mg.entryOrNil(id); e != nil {
		return e, true
	}
	if mg.sys.Opt.Management == Central {
		panic(fmt.Sprintf("dsm: no directory entry for minipage %d", id))
	}
	mg.waitInit[id] = append(mg.waitInit[id], m)
	return nil, false
}

// handleDirInit seeds the shard entry for a freshly allocated minipage
// (copyset and ownership start at the allocating host) and replays any
// requests that raced ahead of the init.
func (mg *manager) handleDirInit(p *sim.Proc, m *pmsg) {
	id := m.Info.ID
	if home := mg.sys.homeOf(id); home != mg.me {
		panic(fmt.Sprintf("dsm: host %d got DIR_INIT for minipage %d homed at host %d", mg.me, id, home))
	}
	if mg.entryOrNil(id) != nil {
		panic(fmt.Sprintf("dsm: duplicate DIR_INIT for minipage %d", id))
	}
	mg.setEntry(id, mg.newEntry(hostset.One(m.From), m.From))
	mg.host().recyclePM(m) // the DIR_INIT ends here
	if q := mg.waitInit[id]; len(q) > 0 {
		delete(mg.waitInit, id)
		for _, held := range q {
			held.Requeued = true
			mg.dispatch(p, held)
		}
	}
}

// enqueue records a competing request (Figure 7 counts these).
func (mg *manager) enqueue(e *dirEntry, m *pmsg) {
	e.queue.Push(m)
	e.Competing++
	mg.Stats.CompetingRequests++
}

// closeTxn ends the open transaction on e and dispatches queued competing
// requests until one reopens the entry (or the queue drains). The loop
// matters under fault injection: a queued request whose dispatch ends up
// dropped or deflected must not strand the requests behind it.
func (mg *manager) closeTxn(p *sim.Proc, e *dirEntry) {
	e.busy = false
	for !e.busy {
		next, ok := e.queue.Pop()
		if !ok {
			return
		}
		next.Requeued = true
		mg.dispatch(p, next)
	}
}

// handleRead is Figure 3's "Manager: Handle Read Request": translate,
// pick a replica, add the requester to the copyset, and forward.
func (mg *manager) handleRead(p *sim.Proc, m *pmsg) {
	if !m.Requeued {
		mg.Stats.ReadReqs++
	}
	e, ok := mg.resolve(p, m)
	if !ok {
		return
	}
	if e.busy {
		mg.enqueue(e, m)
		return
	}
	e.busy = true
	if mg.sys.replAt(mg.me) != nil {
		mg.commitIntent(p, e, m, func(p *sim.Proc) { mg.readEffect(p, e, m) })
		return
	}
	mg.readEffect(p, e, m)
}

// readEffect is the directory effect of an admitted read: pick a source,
// extend the copyset, and forward the request itself, translation filled
// in. Under replication it runs only after the admission has been
// mirrored to the backup.
func (mg *manager) readEffect(p *sim.Proc, e *dirEntry, m *pmsg) {
	src := mg.findReplica(e)
	e.copyset = e.copyset.With(m.From)
	m.Type = mReadFwd
	mg.host().Send(p, src, m)
}

// findReplica picks the host to source the minipage from: the owner if it
// still holds a copy, otherwise the lowest-numbered replica.
func (mg *manager) findReplica(e *dirEntry) int {
	if e.copyset.Empty() {
		panic("dsm: findReplica on empty copyset")
	}
	if e.copyset.Has(e.owner) {
		return e.owner
	}
	return e.copyset.First()
}

// handleWrite is "Manager: Handle Write Request": invalidate every other
// replica, then have the remaining one ship the minipage (or grant an
// upgrade if the requester already holds the only bytes).
func (mg *manager) handleWrite(p *sim.Proc, m *pmsg) {
	if !m.Requeued {
		mg.Stats.WriteReqs++
	}
	e, ok := mg.resolve(p, m)
	if !ok {
		return
	}
	if e.busy {
		mg.enqueue(e, m)
		return
	}
	e.busy = true
	if mg.sys.replAt(mg.me) != nil {
		mg.commitIntent(p, e, m, func(p *sim.Proc) { mg.writeEffect(p, e, m) })
		return
	}
	mg.writeEffect(p, e, m)
}

// writeEffect is the directory effect of an admitted write; under
// replication it runs only after the admission has been mirrored.
func (mg *manager) writeEffect(p *sim.Proc, e *dirEntry, m *pmsg) {
	others := e.copyset.Without(m.From)

	if others.Empty() {
		// Requester is the sole holder: pure protection upgrade.
		if e.copyset != hostset.One(m.From) {
			panic(fmt.Sprintf("dsm: write fault on minipage %d with empty copyset", m.Info.ID))
		}
		e.owner = m.From
		m.Type = mUpgradeGrant
		mg.host().Send(p, m.From, m)
		return
	}

	if e.copyset.Has(m.From) {
		// Upgrade: the requester has the bytes; invalidate everyone else.
		e.pendingWrite = m
		e.upgrade = true
		e.invAwait = others.Count()
		if e.repl != nil {
			e.repl.invMask = others
		}
		mg.sendInvalidates(p, m, others)
		return
	}

	// The requester has nothing: pick a source, invalidate the rest.
	src := e.owner
	if !e.copyset.Has(src) {
		src = others.First()
	}
	invTargets := others.Without(src)
	if invTargets.Empty() {
		mg.forwardWrite(p, e, m, src)
		return
	}
	e.pendingWrite = m
	e.upgrade = false
	e.writeSrc = src
	e.invAwait = invTargets.Count()
	if e.repl != nil {
		e.repl.invMask = invTargets
	}
	mg.sendInvalidates(p, m, invTargets)
}

// sendInvalidates issues INVALIDATE_REQUESTs to every host in mask.
func (mg *manager) sendInvalidates(p *sim.Proc, m *pmsg, mask hostset.Set) {
	for h := 0; h < mg.sys.NumHosts(); h++ {
		if !mask.Has(h) {
			continue
		}
		mg.Stats.Invalidations++
		// TID/Txn (zero on the clean path) are echoed in the reply so a
		// replicated home can match it against the open transaction.
		mg.host().sendNew(p, h, pmsg{Type: mInvalidateReq, From: m.From, Info: m.Info, TID: m.TID, Txn: m.Txn})
	}
}

// forwardWrite forwards the translated write request to the chosen
// source, transferring ownership of the minipage to the requester.
func (mg *manager) forwardWrite(p *sim.Proc, e *dirEntry, m *pmsg, src int) {
	e.copyset = hostset.One(m.From)
	e.owner = m.From
	m.Type = mWriteFwd
	mg.host().Send(p, src, m)
}

// handleInvReply is "Manager: Handle Invalidate Reply": once every
// invalidation is confirmed, release the pending write.
func (mg *manager) handleInvReply(p *sim.Proc, m *pmsg) {
	id, from, tid, txn := m.Info.ID, m.From, m.TID, m.Txn
	mg.host().recyclePM(m) // the invalidate reply ends here, counted or not
	if rp := mg.sys.replAt(mg.me); rp != nil {
		// A reply forwarded from a deposed primary (or re-delivered after a
		// re-drive) must not double-count: accept one reply per host per
		// open invalidation round, matched to the open transaction.
		e := mg.entryOrNil(id)
		if e == nil || e.pendingWrite == nil || e.invAwait == 0 ||
			!e.repl.invMask.Has(from) || tid != e.repl.openTID || txn != e.repl.openTxn {
			return
		}
		e.repl.invMask = e.repl.invMask.Without(from)
	}
	e := mg.entry(id)
	// The replying host no longer holds a copy.
	e.copyset = e.copyset.Without(from)
	if e.invAwait--; e.invAwait > 0 {
		return
	}
	w := e.pendingWrite
	e.pendingWrite = nil
	if e.upgrade {
		e.upgrade = false
		e.copyset = hostset.One(w.From)
		e.owner = w.From
		w.Type = mUpgradeGrant
		mg.host().Send(p, w.From, w)
		return
	}
	mg.forwardWrite(p, e, w, e.writeSrc)
}

// handleAck closes the transaction the woken faulting thread confirms,
// records it as done (so late retries of it are dropped, not replayed),
// and serves the next competing request.
func (mg *manager) handleAck(p *sim.Proc, m *pmsg) {
	id, tid, txn := m.Info.ID, m.TID, m.Txn
	mg.host().recyclePM(m) // the ack ends here, matched or not
	if txn != 0 && txn > mg.done[tid] {
		mg.done[tid] = txn
	}
	if mg.sys.replAt(mg.me) != nil {
		// Replicated path: duplicate re-acks (a requester dropping the
		// re-driven twin of a completed transaction) and late acks
		// forwarded across a view change must close only the transaction
		// they belong to. Unstamped transactions (Txn 0: the fault-free
		// clean path, where delivery is FIFO and duplicates cannot arise)
		// carry the thread id in TID but open with TID 0, so they match on
		// Txn alone.
		e := mg.entryOrNil(id)
		if e == nil || !e.busy {
			return
		}
		unstamped := txn == 0 && e.repl.openTxn == 0
		if !unstamped && (tid != e.repl.openTID || txn != e.repl.openTxn) {
			return
		}
		mg.commitClose(p, e, id, tid, txn)
		return
	}
	mg.closeTxn(p, mg.entry(id))
}

// allocLocal carves minipage(s) for host `from` and creates directory
// entries it owns — locally when this host is the minipage's home,
// via a DIR_INIT message to the home otherwise. It runs only on host 0
// (the allocation authority: the MPT grows nowhere else), behind
// Host.Alloc.
func (mg *manager) allocLocal(p *sim.Proc, from, size int) (cluster.Allocation, error) {
	mg.Stats.Allocs++
	mpt := mg.sys.mpt
	mp, va, err := mpt.Alloc(size)
	if err != nil {
		return cluster.Allocation{}, err
	}
	firstNew := mg.dirInited
	rp := mg.sys.replAt(mg.me)
	for id := firstNew; id < mpt.NumMinipages(); id++ {
		if rp != nil {
			// Replicated management: seed both the shard's current primary
			// and its backup (per the authoritative view service on this
			// host), so neither a failover nor a lost seed can stall the
			// minipage until restart.
			mg.seedRepl(p, rp, id, from)
			continue
		}
		if home := mg.sys.homeOf(id); home == mg.me {
			mg.setEntry(id, mg.newEntry(hostset.One(from), from))
		} else {
			nmp, _ := mpt.ByID(id)
			mg.host().sendNew(p, home, pmsg{Type: mDirInit, From: from, Info: nmp.Info(mg.sys.Layout)})
		}
	}
	mg.dirInited = mpt.NumMinipages()

	// Does the requester own the minipage (and so get it writable with
	// no fault)? Fresh minipages: always — nobody else can hold a copy
	// yet. Chunk-extended minipages whose directory lives here: ask the
	// live entry, exactly as the central manager does. Chunk-extended
	// minipages homed remotely: conservatively no — the first write
	// faults to the home instead, which keeps SW/MR without another
	// round-trip from the allocation path.
	owner := mp.ID >= firstNew
	if !owner {
		if rp != nil {
			if _, ok := rp.serving[mg.sys.homeOf(mp.ID)]; ok {
				owner = mg.entry(mp.ID).owner == from
			}
		} else if mg.sys.homeOf(mp.ID) == mg.me {
			owner = mg.entry(mp.ID).owner == from
		}
	}
	return cluster.Allocation{VA: va, Info: mp.Info(mg.sys.Layout), Owner: owner}, nil
}

// handlePush opens a push transaction: order the owner to replicate the
// minipage to all hosts.
func (mg *manager) handlePush(p *sim.Proc, m *pmsg) {
	if !m.Requeued {
		mg.Stats.Pushes++
	}
	e, ok := mg.resolve(p, m)
	if !ok {
		return
	}
	if e.busy {
		mg.enqueue(e, m)
		return
	}
	if mg.sys.NumHosts() == 1 {
		mg.host().recyclePM(m)
		return // nothing to replicate to
	}
	e.busy = true
	if mg.sys.replAt(mg.me) != nil {
		mg.commitIntent(p, e, m, func(p *sim.Proc) { mg.pushEffect(p, e, m) })
		return
	}
	mg.pushEffect(p, e, m)
}

// pushEffect is the directory effect of an admitted push; under
// replication it runs only after the admission has been mirrored.
func (mg *manager) pushEffect(p *sim.Proc, e *dirEntry, m *pmsg) {
	e.pushAwait = mg.sys.NumHosts() - 1
	src := mg.findReplica(e)
	if mg.sys.replAt(mg.me) != nil {
		// Expect one ack from every host but the pusher; acks forwarded
		// from a deposed primary must not double-count (see handlePushAck).
		var mask hostset.Set
		for h := 0; h < mg.sys.NumHosts(); h++ {
			if h != src {
				mask = mask.With(h)
			}
		}
		e.repl.pushMask = mask
	}
	m.Type = mPushOrder // the request itself goes on to the owner
	mg.host().Send(p, src, m)
}

// handlePushAck completes the push once every other host holds a copy.
func (mg *manager) handlePushAck(p *sim.Proc, m *pmsg) {
	id, from, tid, txn := m.Info.ID, m.From, m.TID, m.Txn
	mg.host().recyclePM(m) // the push ack ends here, counted or not
	if rp := mg.sys.replAt(mg.me); rp != nil {
		e := mg.entryOrNil(id)
		if e == nil || !e.busy || e.pushAwait == 0 ||
			!e.repl.pushMask.Has(from) || tid != e.repl.openTID || txn != e.repl.openTxn {
			return
		}
		e.repl.pushMask = e.repl.pushMask.Without(from)
		e.copyset = e.copyset.With(from)
		if e.pushAwait--; e.pushAwait > 0 {
			return
		}
		mg.commitClose(p, e, id, e.repl.openTID, e.repl.openTxn)
		return
	}
	e := mg.entry(id)
	e.copyset = e.copyset.With(from)
	if e.pushAwait--; e.pushAwait > 0 {
		return
	}
	mg.closeTxn(p, e)
}
