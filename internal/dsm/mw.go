package dsm

import (
	"fmt"
	"slices"

	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/sim"
	"millipage/internal/twindiff"
	"millipage/internal/vm"
)

// mwNotice is a write notice: one closed interval and the minipages it
// modified.
type mwNotice struct {
	Creator int
	Seq     uint64 // the creator's vector-clock component for this interval
	MPs     []int  // minipage ids modified in the interval, sorted
}

// mwSync is what the protocol piggybacks on the coordinator's
// synchronization headers (Msg.Ext). One pooled record travels out with
// a request and back with its answer, so its slice capacities are reused
// from one synchronization to the next.
type mwSync struct {
	PoolState // recycled mark under -tags invariants; empty otherwise

	VC       []uint64   // sender's vector clock (LOCK_REQUEST, BARRIER_ARRIVE)
	Notice   mwNotice   // the releaser's closed interval, MPs nil if it wrote nothing (UNLOCK)
	Releaser *Host      // whose epoch's notices ride along (BARRIER_ARRIVE)
	Notices  []mwNotice // piggybacked write notices (LOCK_GRANT, BARRIER_RELEASE)

	// BARRIER_RELEASE, both classes: the moves, the table after them, the epoch opened.
	Moves []homeMove
	Homes []int16
	Epoch uint32
}

// mwEpoch holds the intervals a host closed in one barrier epoch: the
// minipage lists of their write notices, flat. Logged and granted
// notices alias the arena, and the creator is its one owner: a closed
// interval's list is never written, growth by append leaves the old
// backing array intact, and the arena is reset two barrier releases
// after its epoch's — by then every host has consumed the epoch's grants
// and releases, a release carried down the barrier tree included.
type mwEpoch struct {
	ends []int // interval i's list is mps[ends[i-1]:ends[i]], the first's from 0
	mps  []int
}

// mwMP is what a host keeps for one minipage, in mwHost.mps by id. It
// holds two Infos because a chunked minipage grows with each allocation.
type mwMP struct {
	twin  []byte    // the twin while a copy away from the home is dirty, else nil
	info  core.Info // as of the twin, or of the home's write fault
	copy  core.Info // the non-home local copy, as of its fetch; Size 0 if none
	stale bool      // invalidated by a write notice since the fetch
	wrote bool      // the home wrote it this interval: dirty, with no twin
	need  int       // 1 + the index of its first need in mwHost.needs; 0 if none
}

// mwNeed is one writer's newest interval whose diff of a minipage a host
// holds a notice for, which the home must apply before it serves the host
// the minipage: a list per minipage in the host's slab, next 1-based.
type mwNeed struct {
	Creator int
	Seq     uint64
	next    int
}

// MWStats aggregates multi-writer protocol activity across the run.
type MWStats struct {
	Fetches       uint64 // minipage fetches from homes
	DiffsSent     uint64 // diff flushes to homes
	DiffBytes     uint64
	TwinsMade     uint64
	WriteFault    uint64
	HomeWrites    uint64 // write faults of a home on its own minipage: no twin, no diff
	FetchesParked uint64 // fetches a home held for a diff still in flight
	HomeWaits     uint64 // times a home's acquire blocked for a diff of its own minipage in flight
	Migrations    uint64 // homes a barrier moved to a stable sole writer, under either class
	Invalidations uint64 // minipages invalidated by write notices
	Notices       uint64 // write notices logged at the coordinator
}

// mwHost is a host's lrc-mw state, zero under SC.
type mwHost struct {
	vc []uint64 // vector clock: vc[c] = newest interval of host c known here

	// mps is indexed by minipage id and covers the MPT as of this host's
	// last fault or acquire, which alone grow it. A host runs one
	// application thread, so a *mwMP holds until that thread's next fault
	// or acquire; the server thread reads only a home (homeOf), for the trace.
	mps   []mwMP
	dirty []int // minipages written this interval, in fault order; sorted at release

	// Own closed intervals by barrier epoch: epochs[1] the current one,
	// epochs[0] the last.
	epochs [2]mwEpoch

	// needs is the slab of every minipage's need list, its free records
	// chained from needFree (an index plus 1; 0 if none). fetchNeed is the
	// list a fetch carries, reused once its reply is in.
	needs     []mwNeed
	needFree  int
	fetchNeed []mwNeed
	diffs     []byte // encoding scratch: a diff leaves in a pooled copy of its own length

	// As a home: per creator, the last diff applied here (applied); the
	// fetches that wait for a diff in flight; the event each apply sets.
	flushed   []uint64
	fetchQ    FIFO
	applyDone *sim.Event
}

// ext returns the piggyback record riding on m.
func (h *Host) ext(m *Msg) *mwSync {
	x := m.Ext
	x.CheckLive("dispatch")
	return x
}

// recycleSync takes a consumed piggyback record off m and returns it to
// the freelist, keeping its slice capacities for reuse.
func (h *Host) recycleSync(m *Msg, x *mwSync) {
	m.Ext = nil
	clear(x.Notices)
	*x = mwSync{VC: x.VC[:0], Notices: x.Notices[:0]}
	h.sys.freeSync.Put(x)
}

// mwAlloc carves request m's bytes out of the minipage table on behalf of a
// host and charges p the bookkeeping. It runs only on host 0, the
// allocation authority.
func (h *Host) mwAlloc(p *sim.Proc, m *Msg) error {
	s := h.sys
	p.Sleep(s.Opt.Costs.MallocBase)
	first := s.mpt.NumMinipages()
	mp, va, err := s.mpt.Alloc(m.Size)
	if err != nil {
		return err
	}
	s.checkHomes(first, s.mpt.NumMinipages())
	m.Addr, m.Info = va, mp.Info(s.Layout)
	return nil
}

// mwMapped maps the allocation at the allocating host if it is the home.
// The home maps its own minipages read-only: a home write must fault so it
// is recorded in an interval and announced by a write notice like any
// other write. A home that did not allocate a minipage maps it at its
// first touch (mwFault).
func (h *Host) mwMapped(info core.Info) {
	if h.homeOf(info.ID) == h.ID() {
		h.protect(info, vm.ReadOnly)
	}
}

// mwFault services read and write faults: fetch the minipage from its
// home if the copy is missing or invalidated; on write, twin and proceed
// — concurrent writers to one minipage never ping-pong. The home's own
// write is only recorded for the interval's notice: its bytes are the
// minipage's, so it needs no twin and no diff. A home's own copy
// is never invalidated, and it maps it at its first touch with no fetch:
// its bytes are current for every notice it holds, as its acquire waits
// for their diffs.
func (t *Thread) mwFault(f vm.Fault) error {
	h, p := t.host, t.p
	c, s := h.Costs(), h.sys

	home, info, err := h.route(f.Addr)
	if err != nil {
		return err
	}
	h.mps = append(h.mps, make([]mwMP, s.mpt.NumMinipages()-len(h.mps))...) // cover the MPT
	m := &h.mps[info.ID]

	if prot, _ := h.Region.ProtOf(info.Base); prot == vm.NoAccess && home != h.ID() {
		if m.twin == nil {
			t.fetchFromHome(m, info, home)
		} else {
			t.fetchDirty(m, info, home)
		}
	}

	dirty := m.twin != nil || m.wrote
	if f.Kind == vm.Write {
		s.stats.WriteFault++
		if !dirty {
			m.info, m.wrote = info, home == h.ID()
			h.dirty = append(h.dirty, info.ID)
		}
		switch {
		case m.wrote:
			s.stats.HomeWrites++
		case !dirty:
			m.twin = s.freeBuf.Get(info.Size)
			must(h.Region.ReadPrivInto(info.Base, m.twin))
			s.stats.TwinsMade++
			p.Sleep(twindiff.TwinCost(info.Size))
		}
		p.Sleep(c.SetProt)
		return h.Region.Protect(info.Base, info.Size, vm.ReadWrite)
	}
	// A dirty minipage stays writable after a read fault: the thread is
	// mid-interval and its next write must not lose the twin.
	want := vm.ReadOnly
	if dirty {
		want = vm.ReadWrite
	}
	p.Sleep(c.SetProt)
	return h.Region.Protect(info.Base, info.Size, want)
}

// fetchFromHome pulls the minipage's contents from its home with a read
// request, which the home serves itself (fetch) and no ack closes. It
// carries the minipage's needs, every diff the home must have applied
// before it serves this host, and they start over.
func (t *Thread) fetchFromHome(m *mwMP, info core.Info, home int) {
	h := t.host
	c := h.Costs()
	h.sys.stats.Fetches++
	need := h.takeNeeds(m)
	fw := t.WaitSlot()
	t.req = request{h: h, fw: fw}
	rq := h.allocPM(Msg{Type: mReadReq, From: h.ID(), Addr: info.Base, Info: info, Req: &t.req, Need: need})
	h.flush(t.p, h.postSized(home, rq, c.HeaderSize+8*len(need))) // a need: a host id and an interval, 32 bits each
	t.Block(Blocking{For: "fault reply", FW: fw, Wake: c.ThreadWake + c.FaultResume})
	m.copy, m.stale = info, false
}

// takeNeeds frees m's need list, copied into the fetchNeed scratch it returns.
func (h *Host) takeNeeds(m *mwMP) []mwNeed {
	need := h.fetchNeed[:0]
	for i := m.need; i != 0; {
		n := &h.needs[i-1]
		need = append(need, *n)
		i, n.next, h.needFree = n.next, h.needFree, i
	}
	m.need, h.fetchNeed = 0, need
	return need
}

// addNeed records creator c's interval seq against minipage m, keeping
// the newest per creator.
func (h *Host) addNeed(m *mwMP, c int, seq uint64) {
	for i := m.need; i != 0; i = h.needs[i-1].next {
		if n := &h.needs[i-1]; n.Creator == c {
			n.Seq = max(n.Seq, seq)
			return
		}
	}
	i := h.needFree
	if i == 0 {
		h.needs, i = append(h.needs, mwNeed{}), len(h.needs)+1
	}
	h.needFree, h.needs[i-1], m.need = h.needs[i-1].next, mwNeed{c, seq, m.need}, i
}

// fetchDirty refetches a dirty copy an acquire invalidated mid-interval —
// the concurrent-writer case multi-writer exists for. It diffs the copy
// against its twin, fetches the home's bytes, lays the local diff over
// them and re-twins from the home's bytes at the minipage's current
// extent, so the next release's diff still holds only this host's writes.
func (t *Thread) fetchDirty(m *mwMP, info core.Info, home int) {
	h := t.host
	p := t.p
	local := t.diff(m)
	t.fetchFromHome(m, info, home)
	h.sys.freeBuf.Put(m.twin)
	m.twin, m.info = h.sys.freeBuf.Get(info.Size), info
	cur := h.sys.freeBuf.Get(info.Size)
	must(h.Region.ReadPrivInto(info.Base, m.twin))
	copy(cur, m.twin)
	must(twindiff.ApplyEncoded(cur, local))
	must(h.Region.WritePriv(info.Base, cur))
	h.sys.freeBuf.Put(cur)
	h.sys.freeBuf.Put(local)
	p.Sleep(twindiff.TwinCost(info.Size) + twindiff.ApplyCost(len(local)))
}

// diff encodes dirty copy m's writes since its twin, grown first to the
// minipage's extent, in a pooled buffer its receiver recycles.
func (t *Thread) diff(m *mwMP) []byte {
	h := t.host
	h.growTwin(m)
	cur := h.sys.freeBuf.Get(m.info.Size)
	must(h.Region.ReadPrivInto(m.info.Base, cur))
	t.p.Sleep(twindiff.CreateCost(m.info.Size))
	var err error
	h.diffs, err = twindiff.AppendDiff(h.diffs[:0], m.twin, cur)
	must(err) // minipages are sub-page: offsets always fit the header
	h.sys.freeBuf.Put(cur)
	return append(h.sys.freeBuf.Get(len(h.diffs))[:0], h.diffs...)
}

// growTwin extends dirty m's twin over what its minipage grew by since
// the twin was made: a chunk's later allocations, which a writable copy
// takes without a fault. Those bytes were unallocated when the twin was
// made, so zero on every host.
func (h *Host) growTwin(m *mwMP) {
	mp, _ := h.sys.mpt.ByID(m.info.ID)
	if info := mp.Info(h.sys.Layout); info.Size > m.info.Size {
		twin := h.sys.freeBuf.Get(info.Size)
		clear(twin[copy(twin, m.twin):])
		h.sys.freeBuf.Put(m.twin)
		m.twin, m.info = twin, info
	}
}

// release closes the current interval: diff every dirty copy away from
// the home against its twin and send the diff, stamped with the interval,
// to the home as it is made (no ack: a fetch that needs it waits there),
// and downgrade the dirty set, the home's writes included, to read-only so
// the next write opens a new interval — all but a copy an acquire has
// invalidated, which stays inaccessible until its next fault refetches it.
// Returns the interval's write notice, its MPs nil if no writes happened
// since the last release.
func (t *Thread) release() mwNotice {
	h := t.host
	s := h.sys
	c := h.Costs()
	p := t.p

	if len(h.dirty) == 0 {
		return mwNotice{}
	}
	slices.Sort(h.dirty)
	e := &h.epochs[1]
	if len(e.ends) == 0 {
		// The epoch's first interval: nothing wrote through a stale alias
		// since the barrier reset the arena (checked under -tags invariants).
		checkPoison(e.mps[:cap(e.mps)])
	}
	seq := h.vc[h.ID()] + 1
	for _, id := range h.dirty {
		m := &h.mps[id]
		if !m.wrote {
			enc := t.diff(m)
			s.stats.DiffsSent++
			s.stats.DiffBytes += uint64(len(enc))
			fm := h.allocPM(Msg{Type: mDiffFlush, From: h.ID(), Addr: m.info.Base, Info: m.info, Diff: enc, Seq: seq})
			h.flush(p, h.postSized(h.homeOf(id), fm, c.HeaderSize+len(enc)))
		}
		s.freeBuf.Put(m.twin)
		m.twin, m.wrote = nil, false
		if !m.stale {
			p.Sleep(c.SetProt)
			h.protect(m.info, vm.ReadOnly)
		}
	}
	h.vc[h.ID()] = seq
	// The notice's minipage list is retained by the coordinator's log (and
	// shared by every granted copy) until the next barrier, so it cannot
	// ride in per-release scratch; it lies in the epoch's arena, whose
	// two-barrier retention outlives every reader.
	e.mps = append(e.mps, h.dirty...)
	e.ends = append(e.ends, len(e.mps))
	h.dirty = h.dirty[:0]
	return h.epochNotice(len(e.ends) - 1)
}

// epochNotice is the write notice of the i-th interval this host closed in
// the current barrier epoch.
func (h *Host) epochNotice(i int) mwNotice {
	e := &h.epochs[1]
	lo, hi := 0, e.ends[i]
	if i > 0 {
		lo = e.ends[i-1]
	}
	return mwNotice{h.ID(), h.vc[h.ID()] - uint64(len(e.ends)-1-i), e.mps[lo:hi:hi]}
}

// acquire applies the write notices delivered with a lock grant or
// barrier release: advance the vector clock, and invalidate exactly the
// minipages a causally newer notice names — the next fault fetches them
// from their homes, needing the notices' diffs there. A home waits for a
// named diff of its own minipages instead.
func (t *Thread) acquire(notices []mwNotice) {
	h := t.host
	s := h.sys
	c := h.Costs()
	p := t.p
	h.mps = append(h.mps, make([]mwMP, s.mpt.NumMinipages()-len(h.mps))...) // a need outlives a copy
	for _, n := range notices {
		if n.Seq > h.vc[n.Creator] {
			h.vc[n.Creator] = n.Seq
		}
		for _, id := range n.MPs {
			m := &h.mps[id]
			switch h.homeOf(id) {
			case h.ID(): // the home reads its own copy: wait for a diff still on the wire
				for !h.applied(n.Creator, n.Seq, id) {
					s.stats.HomeWaits++
					h.applyDone.Reset()
					t.Block(Blocking{For: "diff apply", On: h.applyDone, Wake: c.ThreadWake})
				}
				continue
			case n.Creator: // the home's writes are in its copy
			default:
				h.addNeed(m, n.Creator, n.Seq)
			}
			info := m.copy
			if m.twin != nil {
				info = m.info
			} else if info.Size == 0 {
				continue // no copy: nothing to invalidate, a future fetch sees the merge
			}
			if !m.stale {
				m.stale = true
				s.stats.Invalidations++
				p.Sleep(c.SetProt)
				h.protect(info, vm.NoAccess)
			}
		}
	}
}

// applied reports whether this home has applied creator c's diff of
// minipage id from interval seq. A creator sends its diffs by interval,
// then id, over one FIFO link, so it has once that diff or a later one is
// in: flushed[c] is the last one's interval and id, 32 bits each, packed.
func (h *Host) applied(c int, seq uint64, id int) bool { return h.flushed[c] >= seq<<32|uint64(id) }

// newEpoch makes the last epoch's arena the new epoch's, poisoned, once a
// barrier has completed.
func (h *Host) newEpoch() {
	e := h.epochs[0]
	poison(e.mps[:cap(e.mps)])
	h.epochs = [2]mwEpoch{h.epochs[1], {e.ends[:0], e.mps[:0]}}
}

// mwRelease is the release half of the consistency model, run as
// synchronization m leaves (Thread.syncRelease). A barrier arrival and an unlock close the
// interval — its diffs sent to their homes before the message leaves — and
// carry write notices for the coordinator's log: an unlock its interval's,
// a barrier arrival every one of its epoch, since it may reach the
// coordinator through the barrier tree ahead of this host's unlocks. A
// barrier arrival and a lock request carry the vector clock the answer's
// notices are chosen against.
func (t *Thread) mwRelease(m *Msg) {
	h, x := t.host, t.host.sys.freeSync.Get()
	m.Ext = x
	if m.Type != mLockReq {
		x.Notice = t.release()
	}
	if m.Type != mUnlock {
		x.VC = append(x.VC[:0], h.vc...)
	}
	if m.Type == mBarrierArrive {
		x.Releaser = h // read in place: the epoch stays as it is until this barrier's release
	}
	x.CheckLive("Send")
}

// mwAcquire is the acquire half (Thread.syncAcquire): apply the write
// notices piggybacked on the grant or release — only minipages with a
// causally newer write are invalidated, everything else this host holds
// stays mapped — and, past a barrier, move homes (after the notices: an
// old home waits out the mover's diffs) and open an epoch.
func (t *Thread) mwAcquire(m *Msg) {
	h := t.host
	x := h.ext(m)
	t.acquire(x.Notices)
	if m.Type == mBarrierRelease {
		h.move(x.Moves)
		h.adopt(t.p, x)
		h.newEpoch()
	}
	h.recycleSync(m, x)
}

// move does lrc-mw's part of a barrier's home moves, before adopt. The
// mover's copy holds every write so far, so needs are dropped; the old home
// keeps its bytes, current after its acquire's waits, as a cached copy.
func (h *Host) move(moves []homeMove) {
	s := h.sys
	for _, mv := range moves {
		m := &h.mps[mv.ID]
		if mp, _ := s.mpt.ByID(mv.ID); h.homeOf(mv.ID) == h.ID() {
			m.copy = mp.Info(s.Layout)
			if prot, _ := h.Region.ProtOf(m.copy.Base); prot == vm.NoAccess {
				m.copy = core.Info{} // never touched here: no copy
			}
		}
		if Invariants && mv.To == h.ID() && (m.stale || m.twin != nil) {
			panic(fmt.Sprintf("lrc-mw: host %d: minipage %d moves here with a stale or dirty copy", h.ID(), mv.ID))
		}
		h.takeNeeds(m)
	}
}

// released logs the write notices a barrier arrival or an unlock carries
// (host 0 only). An unlock's record ends here.
func (h *Host) released(m *Msg) {
	x := h.ext(m)
	switch r := x.Releaser; {
	case r != nil:
		for i := range r.epochs[1].ends {
			h.logNotice(r.epochNotice(i))
		}
	case x.Notice.MPs != nil:
		h.logNotice(x.Notice)
	}
	if m.Type == mUnlock {
		h.recycleSync(m, x)
	}
}

// granting fills a lock grant with every logged notice newer than the
// requester's vector clock (host 0 only).
func (h *Host) granting(m *Msg) {
	x := h.ext(m)
	x.Notices = h.sys.newerThan(x.Notices, x.VC)
}

// converged completes a barrier episode at the coordinator, under either
// class: every release gets the barrier's home moves and the notices its
// arrival's clock had not covered, and the log is cleared. Under SC they
// ride in the coordinator's one record, and the log is empty.
func (h *Host) converged(arrivals []*Msg) {
	s := h.sys
	moves := s.moves()
	if !s.mw {
		for _, a := range arrivals {
			a.Ext = &s.release
		}
	}
	for _, a := range arrivals {
		x := h.ext(a)
		x.Moves, x.Homes, x.Epoch = moves, s.homes, s.epoch
		x.Notices = s.newerThan(x.Notices, x.VC)
	}
	// Every arrival carried its epoch's notices, so each release's notices
	// bring its host's clock up to the whole log, which nothing can be
	// granted from again: clear it.
	s.log = s.log[:0]
	s.logPrev = s.logPrev[:0]
	clear(s.logLast)
}

// logNotice appends a release's write notice at the coordinator (host 0
// only), unless a notice of its creator as new is logged already: a
// barrier arrival's epoch repeats its unlocks'.
func (h *Host) logNotice(n mwNotice) {
	s := h.sys
	if s.logLast == nil {
		s.logLast = make([]int, s.NumHosts())
	}
	last := s.logLast[n.Creator] - 1
	if last >= 0 && s.log[last].Seq >= n.Seq {
		return
	}
	s.stats.Notices++
	s.logPrev = append(s.logPrev, last)
	s.log = append(s.log, n)
	s.logLast[n.Creator] = len(s.log)
}

// newerThan appends to dst every logged notice newer than vector clock
// vc, in log order. A creator's notices are logged in Seq order,
// so the ones vc has not seen are the tail of its chain, walked from
// its latest notice back; the scan then starts at the earliest of those
// instead of at the head of the log. A host's clock covers everything
// its last grant delivered, so what lies past that point is new to it,
// apart from its own releases: the cost is the notices emitted, not the
// log's length.
func (s *System) newerThan(dst []mwNotice, vc []uint64) []mwNotice {
	start := len(s.log)
	for c, last := range s.logLast {
		for i := last - 1; i >= 0 && s.log[i].Seq > vc[c]; i = s.logPrev[i] {
			if i < start {
				start = i
			}
		}
	}
	dst = slices.Grow(dst, len(s.log)-start) // at most these: one growth, not a doubling run
	for _, n := range s.log[start:] {
		if n.Seq > vc[n.Creator] {
			dst = append(dst, n)
		}
	}
	return dst
}

// fetch serves a read at its home, the source, with no directory
// transaction: the copy ships once the home has applied every diff the
// request needs; until then the request waits in fetchQ, retried at each
// apply and counted parked once. The header turns around as the reply
// (the requester is blocked on it and holds no other reference).
func (h *Host) fetch(p *sim.Proc, m *Msg) *fastmsg.Message {
	for _, n := range m.Need {
		if !h.applied(n.Creator, n.Seq, m.Info.ID) {
			if !m.Requeued {
				m.Requeued = true
				h.sys.stats.FetchesParked++
			}
			h.fetchQ.Push(m)
			return nil
		}
	}
	return h.replyWithData(p, m, mReadReply)
}

// diffFlush applies a diff to the home's copy and recycles it, then
// retries the fetches waiting for a diff and wakes an acquire that may be.
func (h *Host) diffFlush(p *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	cur := h.sys.freeBuf.Get(m.Info.Size)
	must(h.Region.ReadPrivInto(m.Info.Base, cur))
	must(twindiff.ApplyEncoded(cur, m.Diff))
	must(h.Region.WritePriv(m.Info.Base, cur))
	h.sys.freeBuf.Put(cur)
	p.Sleep(twindiff.ApplyCost(len(m.Diff)))
	h.sys.freeBuf.Put(m.Diff)
	h.flushed[m.From] = m.Seq<<32 | uint64(m.Info.ID)
	h.recyclePM(m)
	h.applyDone.Set()
	q := h.fetchQ
	h.fetchQ = FIFO{}
	for f := q.Pop(); f != nil; f = q.Pop() {
		h.flush(p, h.fetch(p, f))
	}
	return nil
}
