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
// invalidates only the minipages named by a causally newer notice; the
// diffs themselves are fetched lazily from the writers on the next fault
// and merged in vector-time order, so two hosts writing disjoint bytes
// of one minipage never ping-pong and never invalidate third parties.
// Data-race-free programs observe the same results as under sequential
// consistency.
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
//   - Home-assisted: every interval's diffs are also flushed to each
//     minipage's home and acked *before* the releaser's notice can
//     circulate. The home is therefore always current for every notice
//     any host can have seen, which gives garbage collection a fallback:
//     a fetcher whose lazy diff request names a purged interval refetches
//     the whole minipage from home instead.
//   - Notices flow through the host-0 coordinator, piggybacked on lock
//     grants and barrier releases. The coordinator stamps each logged
//     notice with a global sequence (a valid linear extension of
//     happens-before, since every release's notice reaches the
//     coordinator before any acquire it precedes is granted), and hands
//     an acquirer every logged notice newer than its vector clock — a
//     conservative superset of the happens-before requirement, which is
//     sound for the data-race-free programs LRC covers.
//   - Garbage collection: the coordinator clears its notice log at every
//     barrier (all vector clocks converge to the global max, so nothing
//     logged earlier can ever be granted again), and each host keeps its
//     closed intervals in three generations — this barrier epoch's, the
//     last one's and the one before — and drops the oldest at every
//     barrier; purged intervals trigger the home-fetch fallback above.
package lrc

import (
	"cmp"
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
	mwDiffReq
	mwDiffReply
)

// mwNotice is a write notice as created at a release: one closed
// interval and the minipages it modified.
type mwNotice struct {
	Creator int
	Seq     uint64 // the creator's vector-clock component for this interval
	MPs     []int  // minipage ids modified in the interval, sorted
}

// mwCNotice is a write notice as logged by the coordinator, stamped with
// the global sequence number that linearizes happens-before.
type mwCNotice struct {
	mwNotice
	VTSum uint64
}

// mwDiffOut is one interval's diff for one minipage, as served by its
// creator to a lazy fetcher. Purged means the creator has garbage-
// collected the interval; the fetcher falls back to a full home fetch.
type mwDiffOut struct {
	Seq    uint64
	Enc    []byte
	Purged bool
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

	MP       int         // minipage id (mwDiffReq, mwDiffReply)
	Seqs     []uint64    // requested interval seqs (mwDiffReq)
	DiffsOut []mwDiffOut // served diffs (mwDiffReply)
}

// mwSync is what the protocol piggybacks on the kernel's synchronization
// headers (cluster.SvcMsg.Ext). One pooled record travels out with a
// request and back with its answer, so its slice capacities are reused
// from one synchronization to the next.
type mwSync struct {
	cluster.PoolState // recycled mark under -tags invariants; empty otherwise

	VC      []uint64    // sender's vector clock (LOCK_REQUEST, BARRIER_ARRIVE)
	Notice  mwNotice    // the releaser's closed interval, MPs nil if it wrote nothing (UNLOCK)
	Epoch   *MWHost     // the releaser, whose epoch's notices ride along (BARRIER_ARRIVE)
	Notices []mwCNotice // piggybacked write notices (LOCK_GRANT, BARRIER_RELEASE)
	MaxVC   []uint64    // converged clock (BARRIER_RELEASE)
}

// mwGen holds the intervals a host closed in one barrier epoch, kept for
// lazy serving until garbage collection. It is flat: interval i's diffs
// are ents[spans[i][0]:spans[i][1]], sorted by minipage, each an encoding
// in bytes; mps backs the minipage lists of the intervals' write notices.
// Home flushes, diff replies and logged notices alias the two arenas, and
// the creator is their one owner: a closed interval is never written,
// growth by append leaves the old backing array intact, and gcIntervals
// resets a generation two barriers after its epoch — a barrier drains
// every flush, reply and granted notice in flight.
type mwGen struct {
	spans [][2]int
	ents  []mwEnt
	bytes []byte
	mps   []int
}

// mwEnt locates one minipage's encoded diff, bytes[off:end] of its mwGen.
type mwEnt struct{ mp, off, end int }

// mwMP is what a host keeps for one minipage, in MWHost.mps by id. It
// holds two Infos because a chunked minipage grows with each allocation.
type mwMP struct {
	twin []byte      // the twin while the minipage is dirty, else nil
	info core.Info   // as of the twin
	copy core.Info   // the non-home local copy, as of its fetch; Size 0 if none
	seen []uint64    // per-creator interval floor the copy reflects
	pend []pendEntry // notices invalidated but not yet merged
}

// pendCap is the capacity of a minipage's first pend slice; a full one
// moves to a piece twice its size.
const pendCap = 8

// carve cuts n zeroed elements, capacity clipped, off the front of
// *slab, which it refills 256 elements at a time: one allocation serves
// many minipages' rows instead of one each.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		*slab = make([]T, max(n, 256))
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// mwFlush is one eager home flush staged by a release.
type mwFlush struct {
	home int
	info core.Info
	enc  []byte
}

// mwFetched is one lazily fetched interval diff awaiting its
// vector-time-ordered merge.
type mwFetched struct {
	vtsum uint64
	enc   []byte
}

// pendEntry records one write notice a host has applied to its page
// tables (the minipage is invalidated) but whose diff it has not yet
// fetched.
type pendEntry struct {
	vtsum   uint64
	creator int
	seq     uint64
}

// MWStats aggregates multi-writer protocol activity across the run.
type MWStats struct {
	Fetches       uint64 // full minipage fetches from homes
	DiffFetches   uint64 // lazy diff requests to writers
	DiffsFetched  uint64 // interval diffs served by those requests
	HomeFallbacks uint64 // lazy fetches that hit a purged interval
	DiffsSent     uint64 // eager diff flushes to homes
	DiffBytes     uint64
	TwinsMade     uint64
	WriteFault    uint64
	ReadFault     uint64
	Invalidations uint64 // minipages invalidated by write notices
	Notices       uint64 // write notices logged at the coordinator
	IntervalsGCed uint64 // closed intervals purged at barriers
}

// MWSystem is a multi-writer LRC cluster. Host 0 keeps the write-notice
// log beside the kernel's barriers and locks and owns the minipage table;
// every minipage's home is its allocating host.
type MWSystem struct {
	cluster.Lifecycle[*MWHost, *MWThread]
	Layout core.Layout

	mpt   *core.MPT
	homes []int // minipage id -> home host

	// Coordinator state (host 0 only).
	log     []mwCNotice // append-only between barriers, cleared at each
	logPrev []int       // logPrev[i]: position of the previous notice by log[i]'s creator, or -1
	logLast []int       // per creator: position of its latest notice, or -1 (Seq rises along each chain)
	vtctr   uint64      // global notice stamp; monotone across clears
	maxvc   []uint64    // barrier-episode scratch; every release shares it

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

// recycleMW returns a fully consumed pooled header to the freelist,
// keeping its slice capacities for reuse.
func (h *MWHost) recycleMW(m *mwmsg) {
	clear(m.DiffsOut)
	*m = mwmsg{Seqs: m.Seqs[:0], DiffsOut: m.DiffsOut[:0]}
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
	mps      []mwMP
	dirty    []int    // minipages with a twin, in twinning order; sorted at release
	seenSlab []uint64 // what the mwMP.seen rows and pend slices are carved from
	pendSlab []pendEntry

	// Own closed intervals by barrier epoch — gens[2] the current one,
	// gens[1] the last, gens[0] the one before — with seqs rising from
	// ivalBase+1 through them in that order.
	gens      [3]mwGen
	ivalBase  uint64 // intervals with seq <= ivalBase are purged
	floorPrev uint64 // GC floor: own seq as of two barriers ago
	floorCur  uint64 // own seq as of the last barrier

	flushAwait int
	flushDone  *sim.Event

	// diffReply hands the last diff reply from the message handler to the
	// (single) application thread.
	diffReply *mwmsg

	// Steady-state scratch, reused across releases and merges.
	relFlush   []mwFlush
	mergeDiffs []mwFetched
}

// NewMW builds a multi-writer LRC cluster: the runtime, the layout, the
// minipage table and one MultiView region per host. Sharing is
// minipage-grain and every minipage's home is its allocating host, so
// opt's Grain, HomeOf and Replication are rejected.
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
	s.mpt = core.NewMPT(s.Layout, core.GrainMinipage, s.Opt.ChunkLevel)
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
// bytes out of the minipage table on behalf of host from, which becomes
// the home of every minipage the allocation opens. It runs only on host
// 0, the allocation authority, and charges p the bookkeeping.
func (h *MWHost) Alloc(p *sim.Proc, from, size int, local bool) (cluster.Allocation, error) {
	s := h.sys
	p.Sleep(s.Opt.Costs.MallocBase)
	mp, va, err := s.mpt.Alloc(size)
	if err != nil {
		return cluster.Allocation{}, err
	}
	for id := len(s.homes); id < s.mpt.NumMinipages(); id++ {
		s.homes = append(s.homes, from)
	}
	return cluster.Allocation{VA: va, Info: mp.Info(s.Layout), Home: s.homes[mp.ID]}, nil
}

// Mapped maps the allocation at its home (cluster.HostHandler). The home
// maps its own minipages read-only: a home write must fault so it is
// twinned into an interval and announced by a write notice like any
// other write.
func (h *MWHost) Mapped(p *sim.Proc, a cluster.Allocation) {
	if a.Home == h.ID() {
		h.Region.Protect(a.Info.Base, a.Info.Size, vm.ReadOnly)
	}
}

// describe gives the trace a header's minipage, address and home from its
// info (zero for diff requests and replies, which name theirs by id).
func (h *MWHost) describe(m *mwmsg) (int, uint64, int) {
	if m.Info.Size == 0 {
		return -1, 0, -1
	}
	home := -1
	if m.Info.ID < len(h.sys.homes) {
		home = h.sys.homes[m.Info.ID]
	}
	return m.Info.ID, m.Info.Base, home
}

// Table places the header in the protocol's message table (cluster.Msg).
func (m *mwmsg) Table() (cluster.Table, int) { return mwTable, int(m.Type) }

// HandleFault services read and write faults: merge pending write
// notices (lazy diff fetch) or fetch from home if absent; on write, twin
// and proceed — concurrent writers to one minipage never ping-pong.
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
	home := s.homes[mp.ID]
	if mp.ID >= len(h.mps) {
		h.mps = append(h.mps, make([]mwMP, len(s.homes)-len(h.mps))...)
	}
	m := &h.mps[mp.ID]

	if prot, _ := h.Region.ProtOf(info.Base); prot == vm.NoAccess {
		if home == h.ID() {
			return fmt.Errorf("lrc-mw: home minipage %d unmapped at its home %d", mp.ID, h.ID())
		}
		if f.Kind == vm.Read {
			h.sys.stats.ReadFault++
		}
		if m.copy.Size == 0 || !t.mergePending(m, info) {
			t.fetchFromHome(m, info, home)
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

// mergePending fetches the diffs named by the minipage's pending write
// notices from their creators, applies them in global vector-time order,
// and reports success. A purged interval at any creator makes it return
// false (after verifying the copy is clean), and the caller refetches
// from home instead.
func (t *MWThread) mergePending(m *mwMP, info core.Info) bool {
	h := t.host
	c := h.Costs()
	p := t.Proc()
	id, pend := info.ID, m.pend
	if len(pend) == 0 {
		// Invalidated with no pending notices cannot happen (pend and the
		// NoAccess protection are set together), but a fresh never-fetched
		// copy entry would land here; refetch to be safe.
		return false
	}
	// Sorting by (creator, seq) groups the per-creator requests — creators
	// ascending, seqs ascending within one — without staging them through
	// per-call maps. Entries are unique, so the order is deterministic.
	slices.SortFunc(pend, func(a, b pendEntry) int {
		if c := cmp.Compare(a.creator, b.creator); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	diffs := h.mergeDiffs[:0]
	for a := 0; a < len(pend); {
		cr := pend[a].creator
		b := a
		for b < len(pend) && pend[b].creator == cr {
			b++
		}
		h.sys.stats.DiffFetches++
		fw := t.WaitSlot()
		req := h.allocMW()
		req.Type = mwDiffReq
		req.From = h.ID()
		req.MP = id
		req.FW = fw
		for k := a; k < b; k++ {
			req.Seqs = append(req.Seqs, pend[k].seq)
		}
		t.call(cr, req, cluster.Blocking{For: "diff reply", FW: fw, Wake: c.ThreadWake})
		reply := h.diffReply
		h.diffReply = nil
		for i, d := range reply.DiffsOut {
			if d.Purged {
				h.sys.stats.HomeFallbacks++
				if m.twin != nil {
					// Purge retention spans two barrier epochs and a dirty twin
					// cannot survive a barrier, so a dirty minipage's pending
					// notices are always younger than any purge. A full refetch
					// here would destroy uncommitted local writes.
					panic(fmt.Sprintf("lrc-mw: purged interval %d@%d for dirty minipage %d", d.Seq, cr, id))
				}
				h.mergeDiffs = diffs[:0]
				h.recycleMW(reply)
				return false
			}
			h.sys.stats.DiffsFetched++
			// The reply serves the requested seqs in order, so entry i
			// carries the diff for pend[a+i]'s notice.
			diffs = append(diffs, mwFetched{vtsum: pend[a+i].vtsum, enc: d.Enc})
		}
		h.recycleMW(reply)
		a = b
	}
	// vtsum is globally unique: the coordinator stamps each notice with a
	// fresh counter value.
	slices.SortFunc(diffs, func(a, b mwFetched) int { return cmp.Compare(a.vtsum, b.vtsum) })
	h.mergeDiffs = diffs
	cur := h.sys.freeBuf.Get(info.Size)
	if err := h.Region.ReadPrivInto(info.Base, cur); err != nil {
		panic(err)
	}
	twin := m.twin
	for _, d := range diffs {
		if err := twindiff.ApplyEncoded(cur, d.enc); err != nil {
			panic(err)
		}
		if twin != nil {
			// Patch the twin too, so this host's own eventual diff captures
			// only its own writes.
			if err := twindiff.ApplyEncoded(twin, d.enc); err != nil {
				panic(err)
			}
		}
		p.Sleep(twindiff.ApplyCost(len(d.enc)))
	}
	if err := h.Region.WritePriv(info.Base, cur); err != nil {
		panic(err)
	}
	h.sys.freeBuf.Put(cur)
	h.mergeDiffs = diffs[:0]
	for _, pe := range pend { // m.seen is set: the copy these notices invalidated was fetched
		if pe.seq > m.seen[pe.creator] {
			m.seen[pe.creator] = pe.seq
		}
	}
	m.pend = pend[:0] // keep the entry capacity for the next notice
	return true
}

// fetchFromHome pulls the minipage's merged contents from its home (the
// home is current for every notice this host can have seen, because
// diffs are flushed and acked before any notice circulates).
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
	m.copy = info
	if m.seen == nil {
		m.seen = carve(&h.seenSlab, len(h.vc))
	}
	copy(m.seen, h.vc)
	m.pend = m.pend[:0]
}

// release closes the current interval: diff every dirty minipage against
// its twin, retain the diffs for lazy serving, flush non-home diffs to
// their homes (acked before the caller may announce the interval), and
// downgrade the dirty set to read-only so the next write opens a new
// interval. Returns the interval's write notice, its MPs nil if no writes
// happened since the last release.
func (t *MWThread) release() mwNotice {
	h := t.host
	s := h.sys
	c := h.Costs()
	p := t.Proc()

	if len(h.dirty) == 0 {
		return mwNotice{}
	}
	slices.Sort(h.dirty)
	seq := h.vc[h.ID()] + 1
	g := &h.gens[2]
	if len(g.spans) == 0 {
		// The epoch's first interval: nothing wrote through a stale alias
		// since gcIntervals reset the arenas (checked under -tags invariants).
		cluster.CheckPoison(g.bytes[:cap(g.bytes)])
		cluster.CheckPoison(g.mps[:cap(g.mps)])
	}
	flushes, lo := h.relFlush[:0], len(g.ents)
	for _, id := range h.dirty {
		m := &h.mps[id]
		info, twin := m.info, m.twin
		home := s.homes[id]
		cur := h.sys.freeBuf.Get(info.Size)
		if err := h.Region.ReadPrivInto(info.Base, cur); err != nil {
			panic(err)
		}
		p.Sleep(twindiff.CreateCost(info.Size))
		off := len(g.bytes)
		var err error
		if g.bytes, err = twindiff.AppendDiff(g.bytes, twin, cur); err != nil {
			panic(err) // minipages are sub-page: offsets always fit the header
		}
		enc := g.bytes[off:len(g.bytes):len(g.bytes)]
		g.ents = append(g.ents, mwEnt{mp: id, off: off, end: len(g.bytes)})
		h.sys.freeBuf.Put(cur)
		h.sys.freeBuf.Put(twin)
		m.twin = nil
		p.Sleep(c.SetProt)
		if err := h.Region.Protect(info.Base, info.Size, vm.ReadOnly); err != nil {
			panic(err)
		}
		if home != h.ID() {
			flushes = append(flushes, mwFlush{home: home, info: info, enc: enc})
		}
	}
	g.spans = append(g.spans, [2]int{lo, len(g.ents)})
	h.vc[h.ID()] = seq
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
	// ride in per-release scratch; it lies in the generation's arena, whose
	// two-barrier retention outlives every reader.
	g.mps = append(g.mps, h.dirty...)
	h.dirty = h.dirty[:0]
	return h.epochNotice(len(g.spans) - 1)
}

// epochNotice is the write notice of the i-th interval this host closed in
// the current barrier epoch (gens[2]): its minipages lie in mps where its
// diffs lie in ents.
func (h *MWHost) epochNotice(i int) mwNotice {
	g := &h.gens[2]
	sp := g.spans[i]
	return mwNotice{h.ID(), h.vc[h.ID()] - uint64(len(g.spans)-1-i), g.mps[sp[0]:sp[1]:sp[1]]}
}

// acquire applies the write notices delivered with a lock grant or
// barrier release, and a barrier's converged clock: advance the vector
// clock, and invalidate exactly the minipages a causally newer notice
// names — the diffs are fetched lazily on the next fault.
func (t *MWThread) acquire(notices []mwCNotice, maxvc []uint64) {
	h := t.host
	s := h.sys
	c := h.Costs()
	p := t.Proc()
	for _, n := range notices {
		if n.Seq > h.vc[n.Creator] {
			h.vc[n.Creator] = n.Seq
		}
		for _, id := range n.MPs {
			if s.homes[id] == h.ID() || id >= len(h.mps) {
				continue // the home had this diff applied before the notice could circulate; an id never faulted on has no copy
			}
			m := &h.mps[id]
			info := m.copy
			if m.twin != nil {
				info = m.info
			} else if info.Size == 0 {
				continue // no copy: nothing to invalidate, a future fetch sees the merge
			}
			if len(m.pend) == cap(m.pend) {
				m.pend = append(carve(&h.pendSlab, max(pendCap, 2*cap(m.pend)))[:0], m.pend...)
			}
			m.pend = append(m.pend, pendEntry{vtsum: n.VTSum, creator: n.Creator, seq: n.Seq})
			if len(m.pend) == 1 {
				h.sys.stats.Invalidations++
				p.Sleep(c.SetProt)
				if err := h.Region.Protect(info.Base, info.Size, vm.NoAccess); err != nil {
					panic(err)
				}
			}
		}
	}
	for i, v := range maxvc {
		if v > h.vc[i] {
			h.vc[i] = v
		}
	}
}

// gcIntervals purges this host's intervals that every other host has
// provably merged or can refetch from home — anything two barrier epochs
// old, which is the oldest generation — and makes its arenas the new
// epoch's. Runs after each completed barrier.
func (h *MWHost) gcIntervals() {
	g := h.gens[0]
	h.ivalBase += uint64(len(g.spans))
	h.sys.stats.IntervalsGCed += uint64(len(g.spans))
	if h.ivalBase != h.floorPrev {
		panic(fmt.Sprintf("lrc-mw: host %d purged through interval %d, GC floor is %d", h.ID(), h.ivalBase, h.floorPrev))
	}
	cluster.Poison(g.bytes[:cap(g.bytes)])
	cluster.Poison(g.mps[:cap(g.mps)])
	h.gens = [3]mwGen{h.gens[1], h.gens[2], {g.spans[:0], g.ents[:0], g.bytes[:0], g.mps[:0]}}
	h.floorPrev = h.floorCur
	h.floorCur = h.vc[h.ID()]
}

// diffOf returns this host's diff of minipage mp in its interval seq for
// a lazy fetcher; ok is false if the interval is purged.
func (h *MWHost) diffOf(seq uint64, mp int) (enc []byte, ok bool) {
	if seq <= h.ivalBase {
		return nil, false
	}
	i := int(seq - h.ivalBase - 1)
	for gi := range h.gens {
		g := &h.gens[gi]
		if i >= len(g.spans) {
			i -= len(g.spans)
			continue
		}
		ents := g.ents[g.spans[i][0]:g.spans[i][1]]
		k, found := slices.BinarySearchFunc(ents, mp, func(e mwEnt, mp int) int { return cmp.Compare(e.mp, mp) })
		if !found {
			break
		}
		return g.bytes[ents[k].off:ents[k].end:ents[k].end], true
	}
	panic(fmt.Sprintf("lrc-mw: interval %d at host %d has no diff for noticed minipage %d", seq, h.ID(), mp))
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
// stays mapped — and, past a barrier, converge the clock and
// garbage-collect old intervals.
func (h *MWHost) Acquire(ctx any, m *cluster.SvcMsg) {
	x := h.ext(m)
	ctx.(*MWThread).acquire(x.Notices, x.MaxVC)
	if m.Type == cluster.SvcBarrierRelease {
		h.gcIntervals()
	}
	h.recycleSync(m, x)
}

// Released logs the write notices a barrier arrival or an unlock carries
// (cluster.Consistency; host 0 only). An unlock's record ends here.
func (h *MWHost) Released(m *cluster.SvcMsg) {
	x := h.ext(m)
	switch r := x.Epoch; {
	case r != nil:
		for i := range r.gens[2].spans {
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

// logNotice stamps and appends a release's write notice at the
// coordinator (host 0 only), unless a notice of its creator as new is
// logged already: a barrier arrival's epoch repeats its unlocks'.
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
	s.vtctr++
	h.sys.stats.Notices++
	s.logPrev = append(s.logPrev, last)
	s.logLast[n.Creator] = len(s.log)
	s.log = append(s.log, mwCNotice{mwNotice: n, VTSum: s.vtctr})
}

// newerThan appends to dst every logged notice newer than vector clock
// vc, in log (VTSum) order. A creator's notices are logged in Seq order,
// so the ones vc has not seen are the tail of its chain, walked from
// its latest notice back; the scan then starts at the earliest of those
// instead of at the head of the log. A host's clock covers everything
// its last grant delivered, so what lies past that point is new to it,
// apart from its own releases: the cost is the notices emitted, not the
// log's length.
func (s *MWSystem) newerThan(dst []mwCNotice, vc []uint64) []mwCNotice {
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
// opens with a charge. Reply headers and acks only record themselves, a
// diff request is answered from the arenas: those run in engine context.
var mwTable = cluster.Register(cluster.MsgTable[*MWHost, *mwmsg]{Describe: (*MWHost).describe, Rows: []cluster.MsgSpec[*MWHost, *mwmsg]{
	mwFetchReq:   {Name: "MW_FETCH_REQUEST", Handle: (*MWHost).fetch},
	mwFetchReply: {Name: "MW_FETCH_REPLY", Handle: cluster.Park[*MWHost, *mwmsg], Engine: true},
	mwFetchData:  {Name: "MW_FETCH_DATA", Handle: (*MWHost).fetchData},
	mwDiffFlush:  {Name: "MW_DIFF_FLUSH", Handle: (*MWHost).diffFlush},
	mwDiffAck:    {Name: "MW_DIFF_ACK", Handle: (*MWHost).diffAck, Engine: true},
	mwDiffReq:    {Name: "MW_DIFF_REQUEST", Handle: (*MWHost).diffRequest, Engine: true},
	mwDiffReply:  {Name: "MW_DIFF_REPLY", Handle: (*MWHost).diffReplied, Engine: true},
}})

// fetch ships the home's copy. Request headers turn around in place (the
// requester is blocked on FW and holds no other reference); the reply's
// consumer recycles them. The bytes are the tail.
func (h *MWHost) fetch(p *sim.Proc, m *mwmsg, _ *fastmsg.Message) *fastmsg.Message {
	data := h.sys.freeBuf.Get(m.Info.Size)
	if err := h.Region.ReadPrivInto(m.Info.Base, data); err != nil {
		panic(err)
	}
	to := m.From
	m.Type = mwFetchReply
	h.Send(p, to, m)
	return h.PostData(to, data, mwDataMarker)
}

func (h *MWHost) fetchData(p *sim.Proc, _ *mwmsg, fm *fastmsg.Message) *fastmsg.Message {
	hdr := h.Unpark(fm).(*mwmsg)
	if err := h.Region.WritePriv(hdr.Info.Base, fm.Data); err != nil {
		panic(err)
	}
	h.sys.freeBuf.Put(fm.Data)
	p.Sleep(h.Costs().SetProt)
	if err := h.Region.Protect(hdr.Info.Base, hdr.Info.Size, vm.ReadOnly); err != nil {
		panic(err)
	}
	hdr.FW.Info = hdr.Info
	hdr.FW.Ev.Set()
	h.recycleMW(hdr)
	return nil
}

func (h *MWHost) diffFlush(p *sim.Proc, m *mwmsg, _ *fastmsg.Message) *fastmsg.Message {
	cur := h.sys.freeBuf.Get(m.Info.Size)
	if err := h.Region.ReadPrivInto(m.Info.Base, cur); err != nil {
		panic(err)
	}
	if err := twindiff.ApplyEncoded(cur, m.Diff); err != nil {
		panic(err)
	}
	if err := h.Region.WritePriv(m.Info.Base, cur); err != nil {
		panic(err)
	}
	h.sys.freeBuf.Put(cur)
	if id := m.Info.ID; id < len(h.mps) && h.mps[id].twin != nil {
		// The home is itself mid-interval on this minipage: patch the
		// twin too, so the home's own diff stays writes-only.
		if err := twindiff.ApplyEncoded(h.mps[id].twin, m.Diff); err != nil {
			panic(err)
		}
	}
	p.Sleep(twindiff.ApplyCost(len(m.Diff)))
	to := m.From
	m.Type = mwDiffAck
	m.From = h.ID()
	m.Diff = nil // the encoding stays in the sender's arena
	return h.Post(to, m)
}

func (h *MWHost) diffAck(_ *sim.Proc, m *mwmsg, _ *fastmsg.Message) *fastmsg.Message {
	if h.flushAwait--; h.flushAwait == 0 {
		h.flushDone.Set()
	}
	h.recycleMW(m)
	return nil
}

// diffRequest serves a lazy fetcher the requested intervals' diffs of one
// minipage, or Purged for those garbage-collected.
func (h *MWHost) diffRequest(_ *sim.Proc, m *mwmsg, _ *fastmsg.Message) *fastmsg.Message {
	size := h.Costs().HeaderSize
	for _, seq := range m.Seqs {
		enc, ok := h.diffOf(seq, m.MP)
		m.DiffsOut = append(m.DiffsOut, mwDiffOut{Seq: seq, Enc: enc, Purged: !ok})
		size += len(enc)
	}
	to := m.From
	m.Type = mwDiffReply
	m.From = h.ID()
	m.Seqs = m.Seqs[:0]
	return h.PostSized(to, m, size)
}

func (h *MWHost) diffReplied(_ *sim.Proc, m *mwmsg, _ *fastmsg.Message) *fastmsg.Message {
	h.diffReply = m
	m.FW.Ev.Set()
	return nil
}
