package dsm

import (
	"fmt"
	"slices"

	"millipage/internal/cluster"
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

// mwDataMarker is the shared payload of every bulk mFetchData message; its
// id of -1 traces it with no minipage.
var mwDataMarker = &pmsg{Type: mFetchData, Info: core.Info{ID: -1}}

// mwSync is what the protocol piggybacks on the kernel's synchronization
// headers (cluster.SvcMsg.Ext). One pooled record travels out with a
// request and back with its answer, so its slice capacities are reused
// from one synchronization to the next.
type mwSync struct {
	cluster.PoolState // recycled mark under -tags invariants; empty otherwise

	VC      []uint64   // sender's vector clock (LOCK_REQUEST, BARRIER_ARRIVE)
	Notice  mwNotice   // the releaser's closed interval, MPs nil if it wrote nothing (UNLOCK)
	Epoch   *Host      // the releaser, whose epoch's notices ride along (BARRIER_ARRIVE)
	Notices []mwNotice // piggybacked write notices (LOCK_GRANT, BARRIER_RELEASE)
	MaxVC   []uint64   // converged clock (BARRIER_RELEASE)
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
	twin  []byte    // the twin while the minipage is dirty, else nil
	info  core.Info // as of the twin
	copy  core.Info // the non-home local copy, as of its fetch; Size 0 if none
	stale bool      // invalidated by a write notice since the fetch
}

// mwFlush is one eager home flush staged by a release.
type mwFlush struct {
	home int
	info core.Info
	enc  []byte
}

// MWStats aggregates multi-writer protocol activity across the run.
type MWStats struct {
	Fetches       uint64 // minipage fetches from homes
	DiffsSent     uint64 // diff flushes to homes
	DiffBytes     uint64
	TwinsMade     uint64
	WriteFault    uint64
	Invalidations uint64 // minipages invalidated by write notices
	Notices       uint64 // write notices logged at the coordinator
}

// mwHost is a host's lrc-mw state, zero under SC.
type mwHost struct {
	vc []uint64 // vector clock: vc[c] = newest interval of host c known here

	// mps is indexed by minipage id and covers the ids this host has
	// faulted on. Only a fault grows it, and a host runs one application
	// thread, so a *mwMP holds until that thread's next fault; the server
	// thread checks the bound and never grows it.
	mps   []mwMP
	dirty []int // minipages with a twin, in twinning order; sorted at release

	// Own closed intervals by barrier epoch: epochs[1] the current one,
	// epochs[0] the last.
	epochs [2]mwEpoch

	flushAwait int
	flushDone  *sim.Event

	// Steady-state scratch, reused across releases. The diffs' encodings
	// are free again once every flush is acked, which release waits for.
	relFlush []mwFlush
	diffs    []byte
}

// ext returns the piggyback record riding on m.
func (h *Host) ext(m *cluster.SvcMsg) *mwSync {
	x := m.Ext.(*mwSync)
	x.CheckLive("dispatch")
	return x
}

// recycleSync takes a consumed piggyback record off m and returns it to
// the freelist, keeping its slice capacities for reuse.
func (h *Host) recycleSync(m *cluster.SvcMsg, x *mwSync) {
	m.Ext = nil
	clear(x.Notices)
	*x = mwSync{VC: x.VC[:0], Notices: x.Notices[:0]}
	h.sys.freeSync.Put(x)
}

// mwAlloc carves size bytes out of the minipage table on behalf of a host
// and charges p the bookkeeping. It runs only on host 0, the allocation
// authority.
func (h *Host) mwAlloc(p *sim.Proc, size int) (cluster.Allocation, error) {
	s := h.sys
	p.Sleep(s.Opt.Costs.MallocBase)
	first := s.mpt.NumMinipages()
	mp, va, err := s.mpt.Alloc(size)
	if err != nil {
		return cluster.Allocation{}, err
	}
	s.CheckHomes(first, s.mpt.NumMinipages())
	return cluster.Allocation{VA: va, Info: mp.Info(s.Layout)}, nil
}

// mwMapped maps the allocation at the allocating host if it is the home.
// The home maps its own minipages read-only: a home write must fault so it
// is twinned into an interval and announced by a write notice like any
// other write. A home that did not allocate a minipage maps it at its
// first touch (mwFault).
func (h *Host) mwMapped(a cluster.Allocation) {
	if h.sys.HomeOf(a.Info.ID) == h.ID() {
		h.protect(a.Info, vm.ReadOnly)
	}
}

// mwFault services read and write faults: fetch the minipage from its
// home if the copy is missing or invalidated; on write, twin and proceed
// — concurrent writers to one minipage never ping-pong. A home's own copy
// is never invalidated, and it maps it at its first touch with no fetch:
// its bytes are current, because every diff is applied at the home
// before its notice can circulate.
func (t *Thread) mwFault(f vm.Fault) error {
	h, p := t.host, t.Proc()
	c, s := h.Costs(), h.sys

	mp, ok := s.mpt.Lookup(f.Addr)
	if !ok {
		return fmt.Errorf("lrc-mw: %#x outside any minipage", f.Addr)
	}
	info := mp.Info(s.Layout)
	home := s.HomeOf(mp.ID)
	if mp.ID >= len(h.mps) {
		h.mps = append(h.mps, make([]mwMP, s.mpt.NumMinipages()-len(h.mps))...)
	}
	m := &h.mps[mp.ID]

	if prot, _ := h.Region.ProtOf(info.Base); prot == vm.NoAccess && home != h.ID() {
		if m.twin == nil {
			t.fetchFromHome(m, info, home)
		} else {
			t.fetchDirty(m, info, home)
		}
	}

	dirty := m.twin != nil
	if f.Kind == vm.Write {
		s.stats.WriteFault++
		if !dirty {
			twin := s.freeBuf.Get(info.Size)
			if err := h.Region.ReadPrivInto(info.Base, twin); err != nil {
				return err
			}
			m.twin, m.info = twin, info
			h.dirty = append(h.dirty, mp.ID)
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

// fetchFromHome pulls the minipage's contents from its home (the home is
// current for every notice this host can have seen, because diffs are
// flushed and acked before any notice circulates).
func (t *Thread) fetchFromHome(m *mwMP, info core.Info, home int) {
	h := t.host
	c := h.Costs()
	h.sys.stats.Fetches++
	fw := t.WaitSlot()
	t.req = request{h: h, fw: fw}
	t.call(home, pmsg{Type: mFetchReq, From: h.ID(), Addr: info.Base, Info: info, Req: &t.req},
		cluster.Blocking{For: "fault reply", FW: fw, Wake: c.ThreadWake + c.FaultResume})
	m.copy, m.stale = info, false
}

// fetchDirty refetches a dirty copy an acquire invalidated mid-interval —
// the concurrent-writer case multi-writer exists for. It diffs the copy
// against its twin, fetches the home's bytes, lays the local diff over
// them and re-twins from the home's bytes at the minipage's current
// extent, so the next release's diff still holds only this host's writes.
func (t *Thread) fetchDirty(m *mwMP, info core.Info, home int) {
	h := t.host
	p := t.Proc()
	h.diffs = h.diffs[:0] // no release is in flight: it waits for its acks
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
	p.Sleep(twindiff.TwinCost(info.Size) + twindiff.ApplyCost(len(local)))
}

// diff appends dirty minipage m's writes since its twin to the host's diff
// scratch and returns their encoding. The home's is never sent, so only
// a copy elsewhere grows its twin to the minipage's extent first.
func (t *Thread) diff(m *mwMP) []byte {
	h := t.host
	if h.sys.HomeOf(m.info.ID) != h.ID() {
		h.growTwin(m)
	}
	cur := h.sys.freeBuf.Get(m.info.Size)
	must(h.Region.ReadPrivInto(m.info.Base, cur))
	t.Proc().Sleep(twindiff.CreateCost(m.info.Size))
	off := len(h.diffs)
	var err error
	if h.diffs, err = twindiff.AppendDiff(h.diffs, m.twin, cur); err != nil {
		panic(err) // minipages are sub-page: offsets always fit the header
	}
	h.sys.freeBuf.Put(cur)
	return h.diffs[off:len(h.diffs):len(h.diffs)]
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

// release closes the current interval: diff every dirty minipage against
// its twin, flush non-home diffs to their homes (acked before the caller
// may announce the interval), and downgrade the dirty set to read-only so
// the next write opens a new interval — all but a copy an acquire has
// invalidated, which stays inaccessible until its next fault refetches it.
// Returns the interval's write notice, its MPs nil if no writes happened
// since the last release.
func (t *Thread) release() mwNotice {
	h := t.host
	s := h.sys
	c := h.Costs()
	p := t.Proc()

	if len(h.dirty) == 0 {
		return mwNotice{}
	}
	slices.Sort(h.dirty)
	e := &h.epochs[1]
	if len(e.ends) == 0 {
		// The epoch's first interval: nothing wrote through a stale alias
		// since the barrier reset the arena (checked under -tags invariants).
		cluster.CheckPoison(e.mps[:cap(e.mps)])
	}
	flushes := h.relFlush[:0]
	h.diffs = h.diffs[:0]
	for _, id := range h.dirty {
		m := &h.mps[id]
		enc := t.diff(m)
		s.freeBuf.Put(m.twin)
		m.twin = nil
		if !m.stale {
			p.Sleep(c.SetProt)
			h.protect(m.info, vm.ReadOnly)
		}
		if home := s.HomeOf(id); home != h.ID() {
			flushes = append(flushes, mwFlush{home: home, info: m.info, enc: enc})
		}
	}
	h.vc[h.ID()]++
	h.relFlush = flushes[:0]
	if len(flushes) > 0 {
		h.flushAwait = len(flushes)
		if h.flushDone == nil {
			h.flushDone = sim.NewEvent(s.Eng)
		} else {
			h.flushDone.Reset()
		}
		for _, f := range flushes {
			s.stats.DiffsSent++
			s.stats.DiffBytes += uint64(len(f.enc))
			fm := h.allocPM()
			*fm = pmsg{Type: mDiffFlush, From: h.ID(), Addr: f.info.Base, Info: f.info, Diff: f.enc}
			h.Flush(p, h.PostSized(f.home, fm, c.HeaderSize+len(f.enc)))
		}
		t.Block(cluster.Blocking{For: "flush done", On: h.flushDone, Wake: c.ThreadWake})
	}
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
// barrier release, and a barrier's converged clock: advance the vector
// clock, and invalidate exactly the minipages a causally newer notice
// names — the next fault fetches them from their homes.
func (t *Thread) acquire(notices []mwNotice, maxvc []uint64) {
	h := t.host
	s := h.sys
	c := h.Costs()
	p := t.Proc()
	for _, n := range notices {
		if n.Seq > h.vc[n.Creator] {
			h.vc[n.Creator] = n.Seq
		}
		for _, id := range n.MPs {
			if id >= len(h.mps) || s.HomeOf(id) == h.ID() {
				continue // the home had this diff applied before the notice could circulate; an id never faulted on has no copy
			}
			m := &h.mps[id]
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
	for i, v := range maxvc {
		if v > h.vc[i] {
			h.vc[i] = v
		}
	}
}

// newEpoch makes the last epoch's arena the new epoch's, poisoned, once a
// barrier has completed.
func (h *Host) newEpoch() {
	e := h.epochs[0]
	cluster.Poison(e.mps[:cap(e.mps)])
	h.epochs = [2]mwEpoch{h.epochs[1], {e.ends[:0], e.mps[:0]}}
}

// Release is the release half of the consistency model
// (cluster.Consistency). A barrier arrival and an unlock close the
// interval — diffs flushed and acked before the message leaves — and
// carry write notices for the coordinator's log: an unlock its interval's,
// a barrier arrival every one of its epoch, since it may reach the
// coordinator through the barrier tree ahead of this host's unlocks. A
// barrier arrival and a lock request carry the vector clock the answer's
// notices are chosen against.
func (h *Host) Release(ctx any, m *cluster.SvcMsg) {
	x := h.sys.freeSync.Get()
	m.Ext = x
	if m.Type != cluster.SvcLockReq {
		x.Notice = ctx.(*Thread).release()
	}
	if m.Type != cluster.SvcUnlock {
		x.VC = append(x.VC[:0], h.vc...)
	}
	if m.Type == cluster.SvcBarrierArrive {
		x.Epoch = h // read in place: the epoch stays as it is until this barrier's release
	}
	x.CheckLive("Send")
}

// Acquire is the acquire half (cluster.Consistency): apply the write
// notices piggybacked on the grant or release — only minipages with a
// causally newer write are invalidated, everything else this host holds
// stays mapped — and, past a barrier, converge the clock and open a new
// notice epoch.
func (h *Host) Acquire(ctx any, m *cluster.SvcMsg) {
	x := h.ext(m)
	ctx.(*Thread).acquire(x.Notices, x.MaxVC)
	if m.Type == cluster.SvcBarrierRelease {
		h.newEpoch()
	}
	h.recycleSync(m, x)
}

// Released logs the write notices a barrier arrival or an unlock carries
// (cluster.Consistency; host 0 only). An unlock's record ends here.
func (h *Host) Released(m *cluster.SvcMsg) {
	x := h.ext(m)
	switch r := x.Epoch; {
	case r != nil:
		for i := range r.epochs[1].ends {
			h.logNotice(r.epochNotice(i))
		}
	case x.Notice.MPs != nil:
		h.logNotice(x.Notice)
	}
	if m.Type == cluster.SvcUnlock {
		h.recycleSync(m, x)
	}
}

// Granting fills a lock grant with every logged notice newer than the
// requester's vector clock (cluster.Consistency; host 0 only).
func (h *Host) Granting(m *cluster.SvcMsg) {
	x := h.ext(m)
	x.Notices = h.sys.newerThan(x.Notices, x.VC)
}

// Converged completes a barrier episode (cluster.Consistency): every
// release gets the converged clock and the notices its arrival's clock
// had not covered, and the log is cleared.
func (h *Host) Converged(arrivals []*cluster.SvcMsg) {
	s := h.sys
	// One converged-clock scratch serves every release message: each
	// acquirer only reads it, and all of them have consumed it before
	// the next episode can complete and overwrite it.
	if s.maxvc == nil {
		s.maxvc = make([]uint64, s.NumHosts())
	}
	maxvc := s.maxvc
	clear(maxvc)
	for _, a := range arrivals {
		for i, v := range h.ext(a).VC {
			if v > maxvc[i] {
				maxvc[i] = v
			}
		}
	}
	for _, n := range s.log {
		if n.Seq > maxvc[n.Creator] {
			maxvc[n.Creator] = n.Seq
		}
	}
	for _, a := range arrivals {
		x := h.ext(a)
		x.MaxVC = maxvc
		x.Notices = s.newerThan(x.Notices, x.VC)
	}
	// Every host's clock now converges to maxvc, so nothing in the log
	// can ever be granted again: clear it.
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

// fetch ships the home's copy. The request header turns around in place
// (the requester is blocked on its request and holds no other reference);
// the bytes are the tail.
func (h *Host) fetch(p *sim.Proc, m *pmsg, _ *fastmsg.Message) *fastmsg.Message {
	to, data := m.From, h.readMinipage(m.Info)
	m.Type = mFetchReply
	h.Send(p, to, m)
	return h.PostData(to, data, mwDataMarker)
}

func (h *Host) fetchData(p *sim.Proc, _ *pmsg, fm *fastmsg.Message) *fastmsg.Message {
	hdr := h.Unpark(fm).(*pmsg)
	must(h.Region.WritePriv(hdr.Info.Base, fm.Data))
	h.sys.freeBuf.Put(fm.Data)
	p.Sleep(h.Costs().SetProt)
	h.protect(hdr.Info, vm.ReadOnly)
	hdr.Req.wake(hdr.Info)
	h.recyclePM(hdr)
	return nil
}

func (h *Host) diffFlush(p *sim.Proc, m *pmsg, _ *fastmsg.Message) *fastmsg.Message {
	cur := h.sys.freeBuf.Get(m.Info.Size)
	must(h.Region.ReadPrivInto(m.Info.Base, cur))
	must(twindiff.ApplyEncoded(cur, m.Diff))
	must(h.Region.WritePriv(m.Info.Base, cur))
	h.sys.freeBuf.Put(cur)
	if id := m.Info.ID; id < len(h.mps) && h.mps[id].twin != nil {
		// The home is itself mid-interval on this minipage: patch the
		// twin too, grown first, so the home's own diff stays writes-only.
		h.growTwin(&h.mps[id])
		must(twindiff.ApplyEncoded(h.mps[id].twin, m.Diff))
	}
	p.Sleep(twindiff.ApplyCost(len(m.Diff)))
	to := m.From
	m.Type, m.From = mDiffAck, h.ID()
	m.Diff = nil // the encoding stays in the sender's scratch
	return h.Post(to, m)
}

func (h *Host) diffAck(_ *sim.Proc, m *pmsg, _ *fastmsg.Message) *fastmsg.Message {
	if h.flushAwait--; h.flushAwait == 0 {
		h.flushDone.Set()
	}
	h.recyclePM(m)
	return nil
}
