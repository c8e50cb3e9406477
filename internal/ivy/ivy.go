// Package ivy implements a classic Li/Hudak-style page-based DSM — the
// system family the Millipage paper is built against. It exists for
// architectural comparison:
//
//   - the sharing unit is the virtual page, full stop: no views, no
//     minipages — so false sharing is structural;
//   - the directory is distributed statically (Li & Hudak's "fixed
//     distributed manager"): page p's manager is host p mod N, rather
//     than Millipage's single manager host;
//   - otherwise the protocol is the same Single-Writer/Multiple-Readers
//     invalidation scheme, over the same simulated substrate
//     (internal/cluster: the identical engine, network, thread
//     lifecycle and cost table as the other protocols).
//
// Benchmarks use it for two comparisons: false sharing (pages vs
// minipages) and directory placement (distributed vs Millipage's
// centralized thin manager).
package ivy

import (
	"fmt"

	"millipage/internal/cluster"
	"millipage/internal/fastmsg"
	"millipage/internal/hostset"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// Options configures an Ivy cluster: the Options struct every protocol
// shares. Sharing is page-grain with fixed distributed managers, so Views
// and ChunkLevel have no meaning here and Grain, HomeOf and Replication
// are rejected.
type Options = cluster.Options

type mtype int

const (
	mReadReq mtype = iota
	mWriteReq
	mReadFwd
	mWriteFwd
	mReadReply
	mWriteReply
	mUpgrade
	mData
	mInvReq
	mInvReply
	mAck
)

// dataMarker is the shared payload of every bulk mData message: the
// header that matters was sent separately.
var dataMarker = &pmsg{Type: mData}

type pmsg struct {
	cluster.PoolState // the kernel's Msg; ivy's headers are not pooled

	Type  mtype
	From  int
	Page  int
	Write bool
	FW    *cluster.Wait
}

// dirEntry is one page's directory record at its manager host.
type dirEntry struct {
	copyset hostset.Set
	owner   int
	busy    bool
	queue   cluster.FIFO[*pmsg]

	pendingWrite *pmsg
	invAwait     int
	upgrade      bool
	writeSrc     int

	Competing uint64
}

// System is an Ivy cluster.
type System struct {
	cluster.Lifecycle[*Host, *Thread]

	numPages int
	base     uint64

	// nextAlloc is the bump pointer of the malloc-like API; host 0 is the
	// allocation authority (page ownership stays with the per-page
	// managers — allocation only hands out addresses).
	nextAlloc uint64

	stats Stats // every host's counters: hosts run one at a time
}

// Stats aggregates cluster-wide counters.
type Stats struct {
	ReadFaults  uint64
	WriteFaults uint64
	Invalidates uint64
	Competing   uint64
}

// Host is one Ivy process. Each host manages the directory entries of
// its page residue class.
type Host struct {
	*cluster.Host
	sys *System
	obj *vm.MemObject

	dir map[int]*dirEntry // pages this host manages
}

const base = uint64(0x4000_0000)

// New builds the cluster. The shared region is mapped at the same base
// address on every host, one view, page protection granularity.
func New(opt Options) (*System, error) {
	s := &System{base: base, nextAlloc: base}
	err := s.Init("ivy", opt, cluster.Traits{},
		func(ct *cluster.Thread, _ *Host) *Thread { return &Thread{ct} })
	if err != nil {
		return nil, err
	}
	hosts := s.Opt.Hosts
	pages := (s.Opt.SharedSize + vm.PageSize - 1) / vm.PageSize
	s.numPages = pages
	frames := vm.NewFramePool()
	for i := 0; i < hosts; i++ {
		as := vm.NewAddressSpace()
		obj := frames.NewMemObject(pages * vm.PageSize)
		if err := as.MapView(base, obj, 0, pages, vm.NoAccess); err != nil {
			return nil, err
		}
		h := &Host{sys: s, obj: obj, dir: make(map[int]*dirEntry)}
		h.Host = s.AddHost(as, h)
	}
	// Pages start owned by their managers, writable there.
	for p := 0; p < pages; p++ {
		mgr := s.Host(p % hosts)
		mgr.dir[p] = &dirEntry{copyset: hostset.One(mgr.ID()), owner: mgr.ID()}
		va := base + uint64(p*vm.PageSize)
		if err := mgr.AS.Protect(va, 1, vm.ReadWrite); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Base returns the shared region's base address (identical on all hosts).
func (s *System) Base() uint64 { return s.base }

// Stats returns the cluster's counters.
func (s *System) Stats() Stats { return s.stats }

// Totals reports the run's protocol counters. Ivy shares whole pages, so
// the minipage footprint stays zero.
func (s *System) Totals() cluster.Totals {
	st, t := s.Stats(), s.Runtime().Totals()
	t.Invalidations = st.Invalidates
	t.CompetingRequests = st.Competing
	return t
}

// managerOf returns the host managing page p (static distribution).
func (s *System) managerOf(p int) int { return p % s.Opt.Hosts }

// Thread is one application thread's handle: the generic substrate
// surface, which is all of Ivy's application API.
type Thread struct{ *cluster.Thread }

// Alloc bumps the cluster-wide allocation pointer, 8-byte aligned
// (cluster.HostHandler; host 0 only). Pages remain owned by their
// per-page managers; allocation only assigns addresses, so the first
// access faults the page over as usual — Mapped has nothing to do.
func (h *Host) Alloc(p *sim.Proc, from, size int, local bool) (cluster.Allocation, error) {
	p.Sleep(h.Costs().MallocBase)
	s := h.sys
	va := (s.nextAlloc + 7) &^ 7
	limit := s.base + uint64(s.numPages*vm.PageSize)
	if va+uint64(size) > limit {
		return cluster.Allocation{}, fmt.Errorf("out of shared memory: %d bytes free", limit-va)
	}
	s.nextAlloc = va + uint64(size)
	return cluster.Allocation{VA: va}, nil
}

func (h *Host) Mapped(p *sim.Proc, a cluster.Allocation) {}

// postPage posts a page's bytes to host `to` (zero-copy data message; the
// header that describes it was sent separately) as a handler's tail.
func (h *Host) postPage(to int, page int) *fastmsg.Message {
	data := make([]byte, vm.PageSize)
	copy(data, h.obj.Frame(page))
	return h.PostData(to, data, dataMarker)
}

func (h *Host) pageVA(page int) uint64 { return h.sys.base + uint64(page*vm.PageSize) }

// describe gives the trace a header's page, its address and its manager.
func (h *Host) describe(m *pmsg) (mp int, addr uint64, home int) {
	return m.Page, h.pageVA(m.Page), h.sys.managerOf(m.Page)
}

// Table places the header in the protocol's message table (cluster.Msg).
func (m *pmsg) Table() (cluster.Table, int) { return table, int(m.Type) }

// HandleFault sends the request to the page's distributed manager and
// waits. It runs in the faulting thread's context.
func (h *Host) HandleFault(ctx any, f vm.Fault) error {
	t := ctx.(*Thread)
	c := h.Costs()
	p := t.Proc()
	page := int((f.Addr - h.sys.base) / vm.PageSize)
	typ := mReadReq
	if f.Kind == vm.Write {
		typ = mWriteReq
		h.sys.stats.WriteFaults++
	} else {
		h.sys.stats.ReadFaults++
	}
	fw := t.WaitSlot()
	t.Block(cluster.Blocking{For: "fault reply", FW: fw, Pre: c.BlockThread, Wake: c.ThreadWake + c.FaultResume,
		To: h.sys.managerOf(page), Request: &pmsg{Type: typ, From: h.ID(), Page: page, FW: fw}})
	h.Send(p, h.sys.managerOf(page), &pmsg{Type: mAck, From: h.ID(), Page: page, Write: f.Kind == vm.Write})
	return nil
}

// table is the protocol's message table (cluster.MsgTable); directory
// operations run at the page's manager (this host, for its residue class).
var table = cluster.Register(cluster.MsgTable[*Host, *pmsg]{Describe: (*Host).describe, Rows: []cluster.MsgSpec[*Host, *pmsg]{
	// front: a request off the wire opens with the manager's lookup (ack charges a requeued one's).
	mReadReq:  {Name: "READ_REQUEST", Front: lookup, Handle: (*Host).manage},
	mWriteReq: {Name: "WRITE_REQUEST", Front: lookup, Handle: (*Host).manage},
	// front: these open with a protection probe or change; nothing before it.
	mReadFwd:  {Name: "READ_FWD", Front: getProt, Handle: (*Host).readFwd},
	mWriteFwd: {Name: "WRITE_FWD", Front: setProt, Handle: (*Host).writeFwd},
	mInvReq:   {Name: "INVALIDATE_REQUEST", Front: setProt, Handle: (*Host).invalidate},
	mUpgrade:  {Name: "UPGRADE_GRANT", Front: setProt, Handle: (*Host).upgrade},

	mReadReply:  {Name: "READ_REPLY", Handle: cluster.Park[*Host, *pmsg], Engine: true},
	mWriteReply: {Name: "WRITE_REPLY", Handle: cluster.Park[*Host, *pmsg], Engine: true},
	mData:       {Name: "DATA", Handle: (*Host).data},
	mInvReply:   {Name: "INVALIDATE_REPLY", Handle: (*Host).invReply},
	mAck:        {Name: "ACK", Handle: (*Host).ack},
}})

func lookup(h *Host, _ *pmsg, _ *fastmsg.Message) sim.Duration  { return h.Costs().MPTLookup }
func getProt(h *Host, _ *pmsg, _ *fastmsg.Message) sim.Duration { return h.Costs().GetProt }
func setProt(h *Host, _ *pmsg, _ *fastmsg.Message) sim.Duration { return h.Costs().SetProt }

func (h *Host) ack(p *sim.Proc, m *pmsg, fm *fastmsg.Message) *fastmsg.Message {
	e := h.dir[m.Page]
	e.busy = false
	next, ok := e.queue.Pop()
	if !ok {
		return nil
	}
	p.Sleep(h.Costs().MPTLookup)
	return h.manage(p, next, fm)
}

func (h *Host) invReply(_ *sim.Proc, m *pmsg, _ *fastmsg.Message) *fastmsg.Message {
	e := h.dir[m.Page]
	e.copyset = e.copyset.Without(m.From)
	if e.invAwait--; e.invAwait > 0 {
		return nil
	}
	wr := e.pendingWrite
	e.pendingWrite = nil
	e.copyset = hostset.One(wr.From)
	e.owner = wr.From
	if e.upgrade {
		e.upgrade = false
		return h.Post(wr.From, wr.as(mUpgrade))
	}
	return h.Post(e.writeSrc, wr.as(mWriteFwd))
}

// as is a copy of m turned into a message of type typ.
func (m *pmsg) as(typ mtype) *pmsg {
	c := *m
	c.Type = typ
	return &c
}

func (h *Host) readFwd(p *sim.Proc, m *pmsg, _ *fastmsg.Message) *fastmsg.Message {
	va := h.pageVA(m.Page)
	if prot, _ := h.AS.ProtOf(va); prot == vm.ReadWrite {
		p.Sleep(h.Costs().SetProt)
		h.AS.Protect(va, 1, vm.ReadOnly)
	}
	h.Send(p, m.From, m.as(mReadReply))
	return h.postPage(m.From, m.Page)
}

func (h *Host) writeFwd(p *sim.Proc, m *pmsg, _ *fastmsg.Message) *fastmsg.Message {
	h.AS.Protect(h.pageVA(m.Page), 1, vm.NoAccess)
	h.Send(p, m.From, m.as(mWriteReply))
	return h.postPage(m.From, m.Page)
}

func (h *Host) invalidate(_ *sim.Proc, m *pmsg, _ *fastmsg.Message) *fastmsg.Message {
	h.AS.Protect(h.pageVA(m.Page), 1, vm.NoAccess)
	h.sys.stats.Invalidates++
	return h.Post(h.sys.managerOf(m.Page), &pmsg{Type: mInvReply, From: h.ID(), Page: m.Page})
}

func (h *Host) data(p *sim.Proc, _ *pmsg, fm *fastmsg.Message) *fastmsg.Message {
	hdr := h.Unpark(fm).(*pmsg)
	copy(h.obj.Frame(hdr.Page), fm.Data)
	c := h.Costs()
	p.Sleep(c.SetProt + sim.Duration(len(fm.Data))*c.InstallPerByte)
	prot := vm.ReadOnly
	if hdr.Type == mWriteReply {
		prot = vm.ReadWrite
	}
	h.AS.Protect(h.pageVA(hdr.Page), 1, prot)
	hdr.FW.Ev.Set()
	return nil
}

func (h *Host) upgrade(_ *sim.Proc, m *pmsg, _ *fastmsg.Message) *fastmsg.Message {
	h.AS.Protect(h.pageVA(m.Page), 1, vm.ReadWrite)
	m.FW.Ev.Set()
	return nil
}

// manage runs the SW/MR directory logic for a page this host manages, its
// lookup charged.
func (h *Host) manage(p *sim.Proc, m *pmsg, _ *fastmsg.Message) *fastmsg.Message {
	e := h.dir[m.Page]
	if e == nil {
		panic(fmt.Sprintf("ivy: host %d asked to manage page %d", h.ID(), m.Page))
	}
	if e.busy {
		e.queue.Push(m)
		e.Competing++
		h.sys.stats.Competing++
		return nil
	}
	e.busy = true

	if m.Type == mReadReq {
		src := e.owner
		if !e.copyset.Has(src) {
			src = firstBit(e.copyset)
		}
		e.copyset = e.copyset.With(m.From)
		return h.Post(src, m.as(mReadFwd))
	}

	// Write request.
	others := e.copyset.Without(m.From)
	if others.Empty() {
		e.owner = m.From
		return h.Post(m.From, m.as(mUpgrade))
	}
	if e.copyset.Has(m.From) {
		e.pendingWrite = m
		e.upgrade = true
		e.invAwait = others.Count()
		return h.sendInvalidates(p, m.Page, others)
	}
	src := e.owner
	if !e.copyset.Has(src) {
		src = firstBit(others)
	}
	targets := others.Without(src)
	if targets.Empty() {
		e.copyset = hostset.One(m.From)
		e.owner = m.From
		return h.Post(src, m.as(mWriteFwd))
	}
	e.pendingWrite = m
	e.upgrade = false
	e.writeSrc = src
	e.invAwait = targets.Count()
	return h.sendInvalidates(p, m.Page, targets)
}

func (h *Host) sendInvalidates(p *sim.Proc, page int, mask hostset.Set) (tail *fastmsg.Message) {
	for i := 0; i < h.sys.NumHosts(); i++ {
		if mask.Has(i) {
			h.Flush(p, tail)
			tail = h.Post(i, &pmsg{Type: mInvReq, From: h.ID(), Page: page})
		}
	}
	return tail
}

func firstBit(s hostset.Set) int {
	h := s.First()
	if h < 0 {
		panic("ivy: empty copyset")
	}
	return h
}
