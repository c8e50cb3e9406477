// Package lrc implements the paper's first future-work direction
// (Section 5, "Reduced-Consistency Protocols"): multi-writer lazy release
// consistency over minipages ("lrc-mw").
//
// The paper's observation: once chunking makes minipages larger than the
// sharing unit, false sharing reappears *within* a minipage — and a
// reduced-consistency protocol can absorb it. This is the TreadMarks-style
// protocol: per-host vector timestamps partition each host's execution
// into intervals; a write fault twins the minipage and proceeds locally;
// a release closes the interval by diffing the dirty minipages against
// their twins; and a write notice (creator, interval, minipage ids) is
// what propagates at synchronization, not the data. An acquire
// invalidates only the minipages named by a causally newer notice, so
// two hosts writing disjoint bytes of one minipage never ping-pong and
// never invalidate third parties. Data-race-free programs observe the
// same results as under sequential consistency.
//
// The protocol reuses the whole Millipage substrate: the shared cluster
// runtime (internal/cluster), the MultiView region and privileged view
// (internal/core), the VM fault upcalls (internal/vm), the FastMessages
// model (internal/fastmsg) and the twin/diff machinery with the paper's
// measured costs (internal/twindiff). The cost Millipage's thin layer
// avoids — 250 us per 4 KB diff — is charged here, which is exactly what
// the ablation benchmarks compare.
//
// Realization choices, sized for the simulated testbed:
//
//   - Home-based (HLRC: Zhou, Iftode & Li, OSDI '96), minipage id homed
//     at Options.HomeOf(id) as under millipage: every interval's
//     diffs are flushed to each minipage's home and acked *before* the
//     releaser's notice can circulate, so the home is current for every
//     notice any host can have seen. A fault on a missing or invalidated
//     copy is one fetch of the whole minipage from its home; a dirty
//     copy lays its own writes back over the home's bytes and re-twins
//     from them, so its next diff still holds only its own writes.
//   - Notices flow through the host-0 coordinator, piggybacked on lock
//     grants and barrier releases. The coordinator's log order is a valid
//     linear extension of happens-before (every release's notice reaches
//     the coordinator before any acquire it precedes is granted); it hands
//     an acquirer every logged notice newer than its vector clock — a
//     conservative superset of the happens-before requirement, which is
//     sound for the data-race-free programs LRC covers.
//   - Garbage collection: the coordinator clears its notice log at every
//     barrier (all vector clocks converge to the global max, so nothing
//     logged earlier can ever be granted again), and each host keeps its
//     notices' minipage lists in two arenas — this barrier epoch's and
//     the last one's — and resets the older at every barrier.
package lrc

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

// multi-writer message types
type mwtype int

const (
	mwFetchReq mwtype = iota
	mwFetchReply
	mwFetchData
	mwDiffFlush
	mwDiffAck
)

// mwNotice is a write notice: one closed interval and the minipages it
// modified.
type mwNotice struct {
	Creator int
	Seq     uint64 // the creator's vector-clock component for this interval
	MPs     []int  // minipage ids modified in the interval, sorted
}

// mwDataMarker is the shared payload of every bulk mwFetchData message.
var mwDataMarker = &mwmsg{Type: mwFetchData}

type mwmsg struct {
	cluster.PoolState // recycled mark under -tags invariants; empty otherwise

	Type mwtype
	From int
	Info core.Info

	Diff []byte // encoded run-length diff (mwDiffFlush)

	FW *cluster.Wait
}

// mwSync is what the protocol piggybacks on the kernel's synchronization
// headers (cluster.SvcMsg.Ext). One pooled record travels out with a
// request and back with its answer, so its slice capacities are reused
// from one synchronization to the next.
type mwSync struct {
	cluster.PoolState // recycled mark under -tags invariants; empty otherwise

	VC      []uint64   // sender's vector clock (LOCK_REQUEST, BARRIER_ARRIVE)
	Notice  mwNotice   // the releaser's closed interval, MPs nil if it wrote nothing (UNLOCK)
	Epoch   *MWHost    // the releaser, whose epoch's notices ride along (BARRIER_ARRIVE)
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

// mwMP is what a host keeps for one minipage, in MWHost.mps by id. It
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

// MWSystem is a multi-writer LRC cluster. Host 0 keeps the write-notice
// log beside the kernel's barriers and locks and owns the minipage table;
// minipage id's home is Options.HomeOf's answer, as under millipage.
type MWSystem struct {
	cluster.Lifecycle[*MWHost, *MWThread]
	Layout core.Layout

	mpt *core.MPT

	// Coordinator state (host 0 only).
	log     []mwNotice // append-only between barriers, cleared at each
	logPrev []int      // logPrev[i]: position of the previous notice by log[i]'s creator, or -1
	logLast []int      // per creator: position of its latest notice, or -1 (Seq rises along each chain)
	maxvc   []uint64   // barrier-episode scratch; every release shares it

	// The cluster's freelists, shared by every host: recycled protocol
	// headers and twin/snapshot buffers.
	freeMW   cluster.Pool[mwmsg]
	freeSync cluster.Pool[mwSync]
	freeBuf  cluster.SlicePool[byte]

	stats MWStats // every host's counters: hosts run one at a time
}

// allocMW returns a protocol header for a message whose consumer will
// recycle it. The caller must set every field it needs; recycleMW zeroes
// the rest. A header has one owner at a time, with and without a fault
// plan: sending it passes it to the handler that receives it, which the
// transport runs exactly once per message — a retransmitted or duplicated
// frame never reaches a handler, so it cannot expose a recycled header.
func (h *MWHost) allocMW() *mwmsg { return h.sys.freeMW.Get() }

// recycleMW returns a fully consumed pooled header to the freelist.
func (h *MWHost) recycleMW(m *mwmsg) {
	*m = mwmsg{}
	h.sys.freeMW.Put(m)
}

// ext returns the piggyback record riding on m.
func (h *MWHost) ext(m *cluster.SvcMsg) *mwSync {
	x := m.Ext.(*mwSync)
	x.CheckLive("dispatch")
	return x
}

// recycleSync takes a consumed piggyback record off m and returns it to
// the freelist, keeping its slice capacities for reuse.
func (h *MWHost) recycleSync(m *cluster.SvcMsg, x *mwSync) {
	m.Ext = nil
	clear(x.Notices)
	*x = mwSync{VC: x.VC[:0], Notices: x.Notices[:0]}
	h.sys.freeSync.Put(x)
}

// call is Send for a request whose reply thread t then waits for, as b
// says: send and wait are one sequence (cluster.Thread.Block).
func (t *MWThread) call(to int, m *mwmsg, b cluster.Blocking) {
	b.To, b.Request = to, m
	t.Block(b)
}

// MWHost is one multi-writer LRC process.
type MWHost struct {
	*cluster.Host
	sys    *MWSystem
	Region *core.Region

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

// NewMW builds a multi-writer LRC cluster: the runtime, the layout, the
// minipage table at opt's Grain and one MultiView region per host.
func NewMW(opt cluster.Options) (*MWSystem, error) {
	s := &MWSystem{}
	err := s.Init("lrc-mw", opt, cluster.Traits{},
		func(ct *cluster.Thread, h *MWHost) *MWThread { return &MWThread{Thread: ct, host: h} })
	if err != nil {
		return nil, err
	}
	if s.Layout, err = core.NewLayout(s.Opt.SharedSize, s.Opt.Views); err != nil {
		return nil, err
	}
	s.mpt = core.NewMPT(s.Layout, s.Opt.Grain, s.Opt.ChunkLevel)
	frames := vm.NewFramePool()
	for i := 0; i < s.Opt.Hosts; i++ {
		as := vm.NewAddressSpace()
		region, err := core.NewRegion(s.Layout, as, frames)
		if err != nil {
			return nil, err
		}
		h := &MWHost{sys: s, Region: region, vc: make([]uint64, s.Opt.Hosts)}
		h.Host = s.AddHost(as, h)
	}
	return s, nil
}

// Stats returns the cluster's counters.
func (s *MWSystem) Stats() MWStats { return s.stats }

// Totals reports the run's protocol counters: the kernel's, the minipage
// table's Table-2 columns, and as invalidations the minipages write
// notices made inaccessible.
func (s *MWSystem) Totals() cluster.Totals {
	t := s.Runtime().Totals()
	t.Minipages = s.mpt.NumMinipages()
	t.ViewsUsed = s.mpt.ViewsUsed()
	t.BytesAllocated = s.mpt.BytesAllocated()
	t.Invalidations = s.stats.Invalidations
	return t
}

// MWThread is an application thread's handle on the multi-writer DSM.
type MWThread struct {
	*cluster.Thread
	host *MWHost
}

// Alloc allocates shared memory (cluster.HostHandler): it carves size
// bytes out of the minipage table on behalf of a host. It runs only on
// host 0, the allocation authority, and charges p the bookkeeping.
func (h *MWHost) Alloc(p *sim.Proc, _, size int, _ bool) (cluster.Allocation, error) {
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

// Mapped maps the allocation at the allocating host if it is the home
// (cluster.HostHandler). The home maps its own minipages read-only: a
// home write must fault so it is twinned into an interval and announced
// by a write notice like any other write. A home that did not allocate a
// minipage maps it at its first touch (HandleFault).
func (h *MWHost) Mapped(p *sim.Proc, a cluster.Allocation) {
	if h.sys.HomeOf(a.Info.ID) == h.ID() {
		h.Region.Protect(a.Info.Base, a.Info.Size, vm.ReadOnly)
	}
}

// describe gives the trace a header's minipage, address and home from its
// info (zero for the bulk data marker, which has none).
func (h *MWHost) describe(m *mwmsg) (int, uint64, int) {
	if m.Info.Size == 0 {
		return -1, 0, -1
	}
	return m.Info.ID, m.Info.Base, h.sys.HomeOf(m.Info.ID)
}

// Table places the header in the protocol's message table (cluster.Msg).
func (m *mwmsg) Table() (cluster.Table, int) { return mwTable, int(m.Type) }

// HandleFault services read and write faults: fetch the minipage from its
// home if the copy is missing or invalidated; on write, twin and proceed
// — concurrent writers to one minipage never ping-pong. A home's own copy
// is never invalidated, and it maps it at its first touch with no fetch:
// its bytes are current, because every diff is applied at the home
// before its notice can circulate.
func (h *MWHost) HandleFault(ctx any, f vm.Fault) error {
	t := ctx.(*MWThread)
	c := h.Costs()
	p := t.Proc()
	s := h.sys

	mp, okk := s.mpt.Lookup(f.Addr)
	if !okk {
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
		h.sys.stats.WriteFault++
		if !dirty {
			twin := h.sys.freeBuf.Get(info.Size)
			if err := h.Region.ReadPrivInto(info.Base, twin); err != nil {
				return err
			}
			m.twin, m.info = twin, info
			h.dirty = append(h.dirty, mp.ID)
			h.sys.stats.TwinsMade++
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
func (t *MWThread) fetchFromHome(m *mwMP, info core.Info, home int) {
	h := t.host
	c := h.Costs()
	h.sys.stats.Fetches++
	fw := t.WaitSlot()
	req := h.allocMW()
	req.Type = mwFetchReq
	req.From = h.ID()
	req.Info = info
	req.FW = fw
	t.call(home, req, cluster.Blocking{For: "fault reply", FW: fw, Wake: c.ThreadWake + c.FaultResume})
	m.copy, m.stale = info, false
}

// fetchDirty refetches a dirty copy an acquire invalidated mid-interval —
// the concurrent-writer case multi-writer exists for. It diffs the copy
// against its twin, fetches the home's bytes, lays the local diff over
// them and re-twins from the home's bytes at the minipage's current
// extent, so the next release's diff still holds only this host's writes.
func (t *MWThread) fetchDirty(m *mwMP, info core.Info, home int) {
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
func (t *MWThread) diff(m *mwMP) []byte {
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
func (h *MWHost) growTwin(m *mwMP) {
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
func (t *MWThread) release() mwNotice {
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
		h.sys.freeBuf.Put(m.twin)
		m.twin = nil
		if !m.stale {
			p.Sleep(c.SetProt)
			must(h.Region.Protect(m.info.Base, m.info.Size, vm.ReadOnly))
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
			h.sys.stats.DiffsSent++
			h.sys.stats.DiffBytes += uint64(len(f.enc))
			fm := h.allocMW()
			fm.Type = mwDiffFlush
			fm.From = h.ID()
			fm.Info = f.info
			fm.Diff = f.enc
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
func (h *MWHost) epochNotice(i int) mwNotice {
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
func (t *MWThread) acquire(notices []mwNotice, maxvc []uint64) {
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
				h.sys.stats.Invalidations++
				p.Sleep(c.SetProt)
				must(h.Region.Protect(info.Base, info.Size, vm.NoAccess))
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
func (h *MWHost) newEpoch() {
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
func (h *MWHost) Release(ctx any, m *cluster.SvcMsg) {
	x := h.sys.freeSync.Get()
	m.Ext = x
	if m.Type != cluster.SvcLockReq {
		x.Notice = ctx.(*MWThread).release()
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
func (h *MWHost) Acquire(ctx any, m *cluster.SvcMsg) {
	x := h.ext(m)
	ctx.(*MWThread).acquire(x.Notices, x.MaxVC)
	if m.Type == cluster.SvcBarrierRelease {
		h.newEpoch()
	}
	h.recycleSync(m, x)
}

// Released logs the write notices a barrier arrival or an unlock carries
// (cluster.Consistency; host 0 only). An unlock's record ends here.
func (h *MWHost) Released(m *cluster.SvcMsg) {
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
func (h *MWHost) Granting(m *cluster.SvcMsg) {
	x := h.ext(m)
	x.Notices = h.sys.newerThan(x.Notices, x.VC)
}

// Converged completes a barrier episode (cluster.Consistency): every
// release gets the converged clock and the notices its arrival's clock
// had not covered, and the log is cleared.
func (h *MWHost) Converged(arrivals []*cluster.SvcMsg) {
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
	for c := range s.logLast {
		s.logLast[c] = -1
	}
}

// logNotice appends a release's write notice at the coordinator (host 0
// only), unless a notice of its creator as new is logged already: a
// barrier arrival's epoch repeats its unlocks'.
func (h *MWHost) logNotice(n mwNotice) {
	s := h.sys
	if s.logLast == nil {
		s.logLast = make([]int, s.NumHosts())
		for c := range s.logLast {
			s.logLast[c] = -1
		}
	}
	last := s.logLast[n.Creator]
	if last >= 0 && s.log[last].Seq >= n.Seq {
		return
	}
	h.sys.stats.Notices++
	s.logPrev = append(s.logPrev, last)
	s.logLast[n.Creator] = len(s.log)
	s.log = append(s.log, n)
}

// newerThan appends to dst every logged notice newer than vector clock
// vc, in log order. A creator's notices are logged in Seq order,
// so the ones vc has not seen are the tail of its chain, walked from
// its latest notice back; the scan then starts at the earliest of those
// instead of at the head of the log. A host's clock covers everything
// its last grant delivered, so what lies past that point is new to it,
// apart from its own releases: the cost is the notices emitted, not the
// log's length.
func (s *MWSystem) newerThan(dst []mwNotice, vc []uint64) []mwNotice {
	start := len(s.log)
	for c, i := range s.logLast {
		for ; i >= 0 && s.log[i].Seq > vc[c]; i = s.logPrev[i] {
			if i < start {
				start = i
			}
		}
	}
	for _, n := range s.log[start:] {
		if n.Seq > vc[n.Creator] {
			dst = append(dst, n)
		}
	}
	return dst
}

// mwTable is the multi-writer message table (cluster.MsgTable). No handler
// opens with a charge. Reply headers and acks only record themselves:
// those run in engine context.
var mwTable = cluster.Register(cluster.MsgTable[*MWHost, *mwmsg]{Describe: (*MWHost).describe, Rows: []cluster.MsgSpec[*MWHost, *mwmsg]{
	mwFetchReq:   {Name: "MW_FETCH_REQUEST", Handle: (*MWHost).fetch},
	mwFetchReply: {Name: "MW_FETCH_REPLY", Handle: cluster.Park[*MWHost, *mwmsg], Engine: true},
	mwFetchData:  {Name: "MW_FETCH_DATA", Handle: (*MWHost).fetchData},
	mwDiffFlush:  {Name: "MW_DIFF_FLUSH", Handle: (*MWHost).diffFlush},
	mwDiffAck:    {Name: "MW_DIFF_ACK", Handle: (*MWHost).diffAck, Engine: true},
}})

// fetch ships the home's copy. Request headers turn around in place (the
// requester is blocked on FW and holds no other reference); the reply's
// consumer recycles them. The bytes are the tail.
func (h *MWHost) fetch(p *sim.Proc, m *mwmsg, _ *fastmsg.Message) *fastmsg.Message {
	data := h.sys.freeBuf.Get(m.Info.Size)
	must(h.Region.ReadPrivInto(m.Info.Base, data))
	to := m.From
	m.Type = mwFetchReply
	h.Send(p, to, m)
	return h.PostData(to, data, mwDataMarker)
}

func (h *MWHost) fetchData(p *sim.Proc, _ *mwmsg, fm *fastmsg.Message) *fastmsg.Message {
	hdr := h.Unpark(fm).(*mwmsg)
	must(h.Region.WritePriv(hdr.Info.Base, fm.Data))
	h.sys.freeBuf.Put(fm.Data)
	p.Sleep(h.Costs().SetProt)
	must(h.Region.Protect(hdr.Info.Base, hdr.Info.Size, vm.ReadOnly))
	hdr.FW.Info = hdr.Info
	hdr.FW.Ev.Set()
	h.recycleMW(hdr)
	return nil
}

func (h *MWHost) diffFlush(p *sim.Proc, m *mwmsg, _ *fastmsg.Message) *fastmsg.Message {
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
	m.Type = mwDiffAck
	m.From = h.ID()
	m.Diff = nil // the encoding stays in the sender's scratch
	return h.Post(to, m)
}

func (h *MWHost) diffAck(_ *sim.Proc, m *mwmsg, _ *fastmsg.Message) *fastmsg.Message {
	if h.flushAwait--; h.flushAwait == 0 {
		h.flushDone.Set()
	}
	h.recycleMW(m)
	return nil
}

// must panics on err: the region and the diffs it is handed are the
// protocol's own, so an error is a protocol bug.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
