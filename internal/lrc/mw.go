// Multi-writer lazy release consistency ("lrc-mw").
//
// The single-writer realization in lrc.go already absorbs write-write
// false sharing inside a minipage — but it does so by flushing diffs
// eagerly and invalidating *every* non-home copy at every acquire, so a
// host that never touches a minipage still refetches it after each
// barrier. This file implements the TreadMarks-style refinement: per-host
// vector timestamps partition each host's execution into intervals; a
// release closes the interval by diffing the dirty minipages against
// their twins; and a write notice (creator, interval, minipage ids) is
// what propagates at synchronization, not the data. An acquire
// invalidates only the minipages named by a causally newer notice; the
// diffs themselves are fetched lazily from the writers on the next fault
// and merged in vector-time order, so two hosts writing disjoint bytes
// of one minipage never ping-pong and never invalidate third parties.
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
//     logged earlier can ever be granted again), and each host purges
//     interval diff records two barriers after their creation; purged
//     intervals trigger the home-fetch fallback above.
package lrc

import (
	"cmp"
	"fmt"
	"slices"

	"millipage/internal/cluster"
	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/sim"
	"millipage/internal/trace"
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

var mwtypeNames = [...]string{
	"MW_FETCH_REQUEST", "MW_FETCH_REPLY", "MW_FETCH_DATA", "MW_DIFF_FLUSH",
	"MW_DIFF_ACK", "MW_DIFF_REQUEST", "MW_DIFF_REPLY",
}

var mwOpBase = trace.RegisterOps(mwtypeNames[:])

func (m mwtype) String() string {
	if int(m) >= 0 && int(m) < len(mwtypeNames) {
		return mwtypeNames[m]
	}
	return fmt.Sprintf("mwtype(%d)", int(m))
}

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
	Notice  *mwNotice   // the releaser's closed interval (UNLOCK, BARRIER_ARRIVE)
	Notices []mwCNotice // piggybacked write notices (LOCK_GRANT, BARRIER_RELEASE)
	MaxVC   []uint64    // converged clock (BARRIER_RELEASE)
}

// mwInterval is one closed interval's retained diffs, kept by the
// creator for lazy serving until garbage collection.
type mwInterval struct {
	diffs map[int][]byte // minipage id -> encoded diff; keyed lookups only

	// mps is the backing array of the interval's write-notice minipage
	// list. The coordinator's log (and every granted copy of the notice)
	// shares it, and the interval's two-barrier retention strictly
	// outlives all of them, so recycling it with the interval is safe.
	mps []int
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
	IntervalsGCed uint64 // interval records purged at barriers
}

// MWSystem is a multi-writer LRC cluster. Host 0 keeps the write-notice
// log beside the kernel's barriers and locks and owns the minipage table;
// every minipage's home is its allocating host.
type MWSystem struct {
	base[*MWHost, *MWThread]

	// Coordinator state (host 0 only).
	log     []mwCNotice // append-only between barriers, cleared at each
	logPrev []int       // logPrev[i]: position of the previous notice by log[i]'s creator, or -1
	logLast []int       // per creator: position of its latest notice, or -1 (Seq rises along each chain)
	vtctr   uint64      // global notice stamp; monotone across clears
	maxvc   []uint64    // barrier-episode scratch; every release shares it

	// The cluster's freelists, shared by every host: recycled protocol
	// headers, twin/snapshot/diff buffers and interval records.
	freeMW     cluster.Pool[mwmsg]
	freeSync   cluster.Pool[mwSync]
	freeBuf    cluster.SlicePool[byte]
	freeIval   cluster.Pool[mwInterval]
	freeMPs    cluster.SlicePool[int]
	freeNotice cluster.Pool[mwNotice]
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

// SendSized ships header m (and its ownership), size bytes on the wire.
func (h *MWHost) SendSized(p *sim.Proc, to int, m *mwmsg, size int) {
	m.CheckLive("Send")
	h.Host.SendSized(p, to, m, size)
}

// Send is SendSized for a bare header.
func (h *MWHost) Send(p *sim.Proc, to int, m *mwmsg) { h.SendSized(p, to, m, h.Costs().HeaderSize) }

// call is Send for a request whose reply thread t then waits for, as b
// says: send and wait are one sequence (cluster.Thread.Block).
func (t *MWThread) call(to int, m *mwmsg, b cluster.Blocking) {
	m.CheckLive("Send")
	b.To, b.Request = to, m
	t.Block(b)
}

// allocBuf returns a byte buffer of length n (twin, minipage snapshot,
// fetch payload); pass 0 for an empty append target (encoded diffs).
func (h *MWHost) allocBuf(n int) []byte { return h.sys.freeBuf.Get(n) }

// recycleBuf returns a fully consumed buffer to the freelist.
func (h *MWHost) recycleBuf(b []byte) { h.sys.freeBuf.Put(b) }

// allocIval returns an interval record with an empty diff map.
func (h *MWHost) allocIval(n int) *mwInterval {
	iv := h.sys.freeIval.Get()
	if iv.diffs == nil {
		iv.diffs = make(map[int][]byte, n)
	}
	return iv
}

// recycleIval returns a garbage-collected interval to the freelist,
// recycling its retained diff encodings and notice minipage list. GC
// runs two barriers after the interval closed, and a barrier drains
// every in-flight diff reply, home flush and granted notice, so nothing
// can still alias either here.
func (h *MWHost) recycleIval(iv *mwInterval) {
	for id, enc := range iv.diffs { //detlint:ok freelist order is invisible: every pooled buffer is fully overwritten before use
		h.recycleBuf(enc)
		delete(iv.diffs, id)
	}
	h.sys.freeMPs.Put(iv.mps)
	iv.mps = nil
	h.sys.freeIval.Put(iv)
}

// allocMPs returns an int slice of length n for a notice's minipage
// list, retained by the creator's interval record until GC.
func (h *MWHost) allocMPs(n int) []int { return h.sys.freeMPs.Get(n) }

// allocNotice returns a write-notice header; the coordinator recycles it
// once the notice is logged (the log keeps a value copy).
func (h *MWHost) allocNotice() *mwNotice { return h.sys.freeNotice.Get() }

// recycleNotice returns a logged notice header to the freelist. The MPs
// backing array stays with the creator's interval record.
func (h *MWHost) recycleNotice(n *mwNotice) {
	*n = mwNotice{}
	h.sys.freeNotice.Put(n)
}

// MWHost is one multi-writer LRC process.
type MWHost struct {
	*cluster.Host
	sys    *MWSystem
	Region *core.Region

	vc []uint64 // vector clock: vc[c] = newest interval of host c known here

	twins     map[int][]byte // minipage id -> twin (the dirty set)
	dirtyInfo map[int]core.Info
	copies    map[int]core.Info   // non-home minipages with a local copy
	seen      map[int][]uint64    // minipage id -> per-creator interval floor the copy reflects
	pend      map[int][]pendEntry // minipage id -> notices invalidated but not yet merged
	ivals     []*mwInterval       // own closed intervals, ivals[i] has seq ivalBase+1+i
	ivalBase  uint64              // intervals with seq <= ivalBase are purged
	floorPrev uint64              // GC floor: own seq as of two barriers ago
	floorCur  uint64              // own seq as of the last barrier

	pendingHdr map[int]*mwmsg // fetch header awaiting its data message, by sender

	flushAwait int
	flushDone  *sim.Event

	// diffReply hands the last diff reply from the message handler to the
	// (single) application thread.
	diffReply *mwmsg

	// Steady-state scratch, reused across releases and merges.
	relDirty   []int
	relFlush   []mwFlush
	mergeDiffs []mwFetched

	// stats is this host's share of MWSystem.Stats.
	stats MWStats
}

// NewMW builds a multi-writer LRC cluster.
func NewMW(opt Options) (*MWSystem, error) {
	s := &MWSystem{}
	err := s.init("lrc-mw", opt,
		func(ct *cluster.Thread, h *MWHost) *MWThread { return &MWThread{Thread: ct, host: h} },
		func(as *vm.AddressSpace, region *core.Region) {
			h := &MWHost{
				sys:        s,
				Region:     region,
				vc:         make([]uint64, s.Opt.Hosts),
				twins:      make(map[int][]byte),
				dirtyInfo:  make(map[int]core.Info),
				copies:     make(map[int]core.Info),
				seen:       make(map[int][]uint64),
				pend:       make(map[int][]pendEntry),
				pendingHdr: make(map[int]*mwmsg),
			}
			h.Host = s.AddHost(as, h)
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Stats sums the per-host counters.
func (s *MWSystem) Stats() MWStats {
	var t MWStats
	for i := 0; i < s.NumHosts(); i++ {
		hs := s.Host(i).stats
		t.Fetches += hs.Fetches
		t.DiffFetches += hs.DiffFetches
		t.DiffsFetched += hs.DiffsFetched
		t.HomeFallbacks += hs.HomeFallbacks
		t.DiffsSent += hs.DiffsSent
		t.DiffBytes += hs.DiffBytes
		t.TwinsMade += hs.TwinsMade
		t.WriteFault += hs.WriteFault
		t.ReadFault += hs.ReadFault
		t.Invalidations += hs.Invalidations
		t.Notices += hs.Notices
		t.IntervalsGCed += hs.IntervalsGCed
	}
	return t
}

// Totals reports the run's protocol counters; invalidations are the
// minipages write notices made inaccessible.
func (s *MWSystem) Totals() cluster.Totals {
	t := s.footprint()
	t.Invalidations = s.Stats().Invalidations
	return t
}

// MWThread is an application thread's handle on the multi-writer DSM.
type MWThread struct {
	*cluster.Thread
	host *MWHost
}

// Alloc allocates shared memory (cluster.HostHandler); the allocating
// host becomes the home of the minipages the allocation opens.
func (h *MWHost) Alloc(p *sim.Proc, from, size int, local bool) (cluster.Allocation, error) {
	return h.sys.alloc(p, from, size)
}

// Mapped maps the allocation at its home (cluster.HostHandler). Unlike
// the single-writer protocol, the home maps its own minipages read-only:
// a home write must fault so it is twinned into an interval and announced
// by a write notice like any other write.
func (h *MWHost) Mapped(p *sim.Proc, a cluster.Allocation) {
	if a.Home == h.ID() {
		h.Region.Protect(a.Info.Base, a.Info.Size, vm.ReadOnly)
	}
}

// DescribeMsg extracts the trace fields from a protocol header.
func (h *MWHost) DescribeMsg(payload any) (op uint16, mp int, addr uint64, home int) {
	m := payload.(*mwmsg)
	return h.sys.describe(mwOpBase+uint16(m.Type), m.Info)
}

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

	if prot, _ := h.Region.ProtOf(info.Base); prot == vm.NoAccess {
		if home == h.ID() {
			return fmt.Errorf("lrc-mw: home minipage %d unmapped at its home %d", mp.ID, h.ID())
		}
		if f.Kind == vm.Read {
			h.stats.ReadFault++
		}
		_, have := h.copies[mp.ID]
		if !have || !t.mergePending(mp.ID, info) {
			t.fetchFromHome(mp.ID, info, home)
		}
	}

	_, dirty := h.twins[mp.ID]
	if f.Kind == vm.Write {
		h.stats.WriteFault++
		if !dirty {
			twin := h.allocBuf(info.Size)
			if err := h.Region.ReadPrivInto(info.Base, twin); err != nil {
				return err
			}
			h.twins[mp.ID] = twin
			h.dirtyInfo[mp.ID] = info
			h.stats.TwinsMade++
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
func (t *MWThread) mergePending(id int, info core.Info) bool {
	h := t.host
	c := h.Costs()
	p := t.Proc()
	pend := h.pend[id]
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
		h.stats.DiffFetches++
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
				h.stats.HomeFallbacks++
				if _, dirty := h.twins[id]; dirty {
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
			h.stats.DiffsFetched++
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
	cur := h.allocBuf(info.Size)
	if err := h.Region.ReadPrivInto(info.Base, cur); err != nil {
		panic(err)
	}
	twin := h.twins[id]
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
	h.recycleBuf(cur)
	h.mergeDiffs = diffs[:0]
	sn := h.seen[id]
	if sn == nil {
		sn = make([]uint64, len(h.vc))
		h.seen[id] = sn
	}
	for _, pe := range pend {
		if pe.seq > sn[pe.creator] {
			sn[pe.creator] = pe.seq
		}
	}
	h.pend[id] = pend[:0] // keep the entry capacity for the next notice
	return true
}

// fetchFromHome pulls the minipage's merged contents from its home (the
// home is current for every notice this host can have seen, because
// diffs are flushed and acked before any notice circulates).
func (t *MWThread) fetchFromHome(id int, info core.Info, home int) {
	h := t.host
	c := h.Costs()
	h.stats.Fetches++
	fw := t.WaitSlot()
	req := h.allocMW()
	req.Type = mwFetchReq
	req.From = h.ID()
	req.Info = info
	req.FW = fw
	t.call(home, req, cluster.Blocking{For: "fault reply", FW: fw, Wake: c.ThreadWake + c.FaultResume})
	h.copies[id] = info
	sn := h.seen[id]
	if sn == nil {
		sn = make([]uint64, len(h.vc))
		h.seen[id] = sn
	}
	copy(sn, h.vc)
	if pe, ok := h.pend[id]; ok {
		h.pend[id] = pe[:0]
	}
}

// release closes the current interval: diff every dirty minipage against
// its twin, retain the diffs for lazy serving, flush non-home diffs to
// their homes (acked before the caller may announce the interval), and
// downgrade the dirty set to read-only so the next write opens a new
// interval. Returns the interval's write notice, or nil if no writes
// happened since the last release.
func (t *MWThread) release() *mwNotice {
	h := t.host
	s := h.sys
	c := h.Costs()
	p := t.Proc()

	if len(h.twins) == 0 {
		return nil
	}
	dirty := h.relDirty[:0]
	for id := range h.twins { //detlint:ok sorted below
		dirty = append(dirty, id)
	}
	slices.Sort(dirty)
	h.relDirty = dirty

	seq := h.vc[h.ID()] + 1
	iv := h.allocIval(len(dirty))
	flushes := h.relFlush[:0]
	for _, id := range dirty {
		info := h.dirtyInfo[id]
		home := s.homes[id]
		twin := h.twins[id]
		cur := h.allocBuf(info.Size)
		if err := h.Region.ReadPrivInto(info.Base, cur); err != nil {
			panic(err)
		}
		p.Sleep(twindiff.CreateCost(info.Size))
		enc, err := twindiff.AppendDiff(h.allocBuf(0), twin, cur)
		if err != nil {
			panic(err) // minipages are sub-page: offsets always fit the header
		}
		h.recycleBuf(cur)
		h.recycleBuf(twin)
		iv.diffs[id] = enc
		delete(h.twins, id)
		delete(h.dirtyInfo, id)
		p.Sleep(c.SetProt)
		if err := h.Region.Protect(info.Base, info.Size, vm.ReadOnly); err != nil {
			panic(err)
		}
		if home != h.ID() {
			flushes = append(flushes, mwFlush{home: home, info: info, enc: enc})
		}
	}
	h.ivals = append(h.ivals, iv)
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
			h.stats.DiffsSent++
			h.stats.DiffBytes += uint64(len(f.enc))
			fm := h.allocMW()
			fm.Type = mwDiffFlush
			fm.From = h.ID()
			fm.Info = f.info
			fm.Diff = f.enc
			h.SendSized(p, f.home, fm, c.HeaderSize+len(f.enc))
		}
		t.Block(cluster.Blocking{For: "flush done", On: h.flushDone, Wake: c.ThreadWake})
	}
	// The notice's minipage list is retained by the coordinator's log (and
	// shared by every granted copy) until the next barrier, so it cannot
	// ride in per-release scratch; it is pooled with the interval record,
	// whose two-barrier retention outlives every reader.
	mps := h.allocMPs(len(dirty))
	copy(mps, dirty)
	iv.mps = mps
	n := h.allocNotice()
	n.Creator = h.ID()
	n.Seq = seq
	n.MPs = mps
	return n
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
			if s.homes[id] == h.ID() {
				continue // the home had this diff applied before the notice could circulate
			}
			_, dirty := h.twins[id]
			info, have := h.copies[id]
			if dirty {
				info = h.dirtyInfo[id]
			} else if !have {
				continue // no copy: nothing to invalidate, a future fetch sees the merge
			}
			h.pend[id] = append(h.pend[id], pendEntry{vtsum: n.VTSum, creator: n.Creator, seq: n.Seq})
			if len(h.pend[id]) == 1 {
				h.stats.Invalidations++
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

// gcIntervals purges this host's interval records that every other host
// has provably merged or can refetch from home: anything two barrier
// epochs old. Runs after each completed barrier.
func (h *MWHost) gcIntervals() {
	k := 0
	for ; h.ivalBase < h.floorPrev && k < len(h.ivals); k++ {
		h.ivalBase++
		h.stats.IntervalsGCed++
		h.recycleIval(h.ivals[k])
	}
	// Slide the survivors down: re-slicing from the front would shed
	// capacity and make release's append reallocate every other barrier.
	n := copy(h.ivals, h.ivals[k:])
	clear(h.ivals[n:])
	h.ivals = h.ivals[:n]
	h.floorPrev = h.floorCur
	h.floorCur = h.vc[h.ID()]
}

// Release is the release half of the consistency model
// (cluster.Consistency). A barrier arrival and an unlock close the
// interval — diffs flushed and acked before the message leaves — and
// carry its write notice for the coordinator's log; a barrier arrival and
// a lock request carry the vector clock the answer's notices are chosen
// against.
func (h *MWHost) Release(ctx any, m *cluster.SvcMsg) {
	x := h.sys.freeSync.Get()
	m.Ext = x
	if m.Type != cluster.SvcLockReq {
		x.Notice = ctx.(*MWThread).release()
	}
	if m.Type != cluster.SvcUnlock {
		x.VC = append(x.VC[:0], h.vc...)
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

// Released logs the write notice a barrier arrival or an unlock carries
// (cluster.NoticeLog; host 0 only). An unlock's record ends here.
func (h *MWHost) Released(m *cluster.SvcMsg) {
	x := h.ext(m)
	if x.Notice != nil {
		h.logNotice(x.Notice)
		h.recycleNotice(x.Notice)
		x.Notice = nil
	}
	if m.Type == cluster.SvcUnlock {
		h.recycleSync(m, x)
	}
}

// Granting fills a lock grant with every logged notice newer than the
// requester's vector clock (cluster.NoticeLog).
func (h *MWHost) Granting(m *cluster.SvcMsg) {
	x := h.ext(m)
	x.Notices = h.sys.newerThan(x.Notices, x.VC)
}

// Converged completes a barrier episode (cluster.NoticeLog): every
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
// coordinator (host 0 only).
func (h *MWHost) logNotice(n *mwNotice) {
	s := h.sys
	s.vtctr++
	h.stats.Notices++
	if s.logLast == nil {
		s.logLast = make([]int, s.NumHosts())
		for c := range s.logLast {
			s.logLast[c] = -1
		}
	}
	last := s.logLast[n.Creator]
	if last >= 0 && s.log[last].Seq >= n.Seq {
		panic(fmt.Sprintf("lrc-mw: host %d's notice %d logged after its notice %d", n.Creator, n.Seq, s.log[last].Seq))
	}
	s.logPrev = append(s.logPrev, last)
	s.logLast[n.Creator] = len(s.log)
	s.log = append(s.log, mwCNotice{mwNotice: *n, VTSum: s.vtctr})
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

// HandleMessage is the multi-writer server-thread dispatcher.
func (h *MWHost) HandleMessage(p *sim.Proc, fm *fastmsg.Message) {
	m := fm.Payload.(*mwmsg)
	m.CheckLive("HandleMessage")
	c := h.Costs()
	switch m.Type {
	case mwFetchReq:
		// Request headers turn around in place (the requester is blocked
		// on FW and holds no other reference); the reply's consumer
		// recycles them.
		data := h.allocBuf(m.Info.Size)
		if err := h.Region.ReadPrivInto(m.Info.Base, data); err != nil {
			panic(err)
		}
		to := m.From
		m.Type = mwFetchReply
		h.Send(p, to, m)
		h.SendData(p, to, data, mwDataMarker)

	case mwFetchReply:
		h.pendingHdr[fm.From] = m

	case mwFetchData:
		hdr, ok := h.pendingHdr[fm.From]
		if !ok {
			panic("lrc-mw: data without header")
		}
		delete(h.pendingHdr, fm.From)
		if err := h.Region.WritePriv(hdr.Info.Base, fm.Data); err != nil {
			panic(err)
		}
		h.recycleBuf(fm.Data)
		p.Sleep(c.SetProt)
		if err := h.Region.Protect(hdr.Info.Base, hdr.Info.Size, vm.ReadOnly); err != nil {
			panic(err)
		}
		hdr.FW.Info = hdr.Info
		hdr.FW.Ev.Set()
		h.recycleMW(hdr)

	case mwDiffFlush:
		cur := h.allocBuf(m.Info.Size)
		if err := h.Region.ReadPrivInto(m.Info.Base, cur); err != nil {
			panic(err)
		}
		if err := twindiff.ApplyEncoded(cur, m.Diff); err != nil {
			panic(err)
		}
		if err := h.Region.WritePriv(m.Info.Base, cur); err != nil {
			panic(err)
		}
		h.recycleBuf(cur)
		if twin, dirty := h.twins[m.Info.ID]; dirty {
			// The home is itself mid-interval on this minipage: patch the
			// twin too, so the home's own diff stays writes-only.
			if err := twindiff.ApplyEncoded(twin, m.Diff); err != nil {
				panic(err)
			}
		}
		p.Sleep(twindiff.ApplyCost(len(m.Diff)))
		to := m.From
		m.Type = mwDiffAck
		m.From = h.ID()
		m.Diff = nil // the encoding stays with the sender's interval record
		h.Send(p, to, m)

	case mwDiffAck:
		if h.flushAwait--; h.flushAwait == 0 {
			h.flushDone.Set()
		}
		h.recycleMW(m)

	case mwDiffReq:
		size := c.HeaderSize
		for _, seq := range m.Seqs {
			if seq <= h.ivalBase {
				m.DiffsOut = append(m.DiffsOut, mwDiffOut{Seq: seq, Purged: true})
				continue
			}
			iv := h.ivals[seq-h.ivalBase-1]
			enc, ok := iv.diffs[m.MP]
			if !ok {
				panic(fmt.Sprintf("lrc-mw: interval %d at host %d has no diff for noticed minipage %d", seq, h.ID(), m.MP))
			}
			m.DiffsOut = append(m.DiffsOut, mwDiffOut{Seq: seq, Enc: enc})
			size += len(enc)
		}
		to := m.From
		m.Type = mwDiffReply
		m.From = h.ID()
		m.Seqs = m.Seqs[:0]
		h.SendSized(p, to, m, size)

	case mwDiffReply:
		h.diffReply = m
		m.FW.Ev.Set()

	default:
		panic(fmt.Sprintf("lrc-mw: unexpected message %d", int(m.Type)))
	}
}
