// Package lrc implements the paper's first future-work direction
// (Section 5, "Reduced-Consistency Protocols"): a home-based lazy
// release consistency DSM over minipages.
//
// The paper's observation: once chunking makes minipages larger than the
// sharing unit, false sharing reappears *within* a minipage — and a
// reduced-consistency protocol can absorb it. Under LRC, writers do not
// invalidate each other between synchronization points: a write fault
// takes a twin of the minipage and proceeds locally; at a barrier every
// host run-length-diffs its dirty minipages against their twins and
// flushes the diffs to the minipage's home, which applies them; after
// the barrier releases, non-home copies are invalidated so the next
// access refetches the merged contents. Lock/Unlock follow the same
// release-consistency discipline: Unlock flushes the holder's diffs to
// the homes before the lock moves on, and Lock invalidates the new
// holder's non-home copies after the grant. Data-race-free programs
// observe the same results as under sequential consistency, while
// concurrent writers to one (chunked) minipage never ping-pong.
//
// The protocol reuses the whole Millipage substrate: the shared cluster
// runtime (internal/cluster), the MultiView region and privileged view
// (internal/core), the VM fault upcalls (internal/vm), the FastMessages
// model (internal/fastmsg) and the twin/diff machinery with the paper's
// measured costs (internal/twindiff). The cost Millipage's thin layer
// avoids — 250 us per 4 KB diff — is charged here, which is exactly what
// the ablation benchmarks compare.
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

// message types
type mtype int

const (
	mFetchReq mtype = iota
	mFetchReply
	mFetchData
	mDiffFlush
	mDiffAck
)

// dataMarker is the shared payload of every bulk mFetchData message.
var dataMarker = &pmsg{Type: mFetchData}

type pmsg struct {
	cluster.PoolState // the kernel's Msg; lrc's headers are not pooled

	Type mtype
	From int
	Info core.Info

	Diff []byte // encoded run-length diff (mDiffFlush)

	FW *cluster.Wait
}

// System is an LRC cluster. Host 0 owns the minipage table; every
// minipage's home is its allocating host.
type System struct {
	base[*Host, *Thread]
	stats Stats // every host's counters: hosts run one at a time
}

// Stats aggregates protocol activity across the run.
type Stats struct {
	Fetches    uint64
	DiffsSent  uint64
	DiffBytes  uint64
	TwinsMade  uint64
	WriteFault uint64
	ReadFault  uint64
}

// Host is one LRC process.
type Host struct {
	*cluster.Host
	sys    *System
	Region *core.Region

	twins     map[int][]byte // minipage id -> twin (dirty set)
	dirtyInfo map[int]core.Info
	present   map[int]core.Info // non-home minipages currently mapped in

	flushAwait int
	flushDone  *sim.Event
}

// New builds an LRC cluster.
func New(opt Options) (*System, error) {
	s := &System{}
	err := s.init("lrc", opt,
		func(ct *cluster.Thread, h *Host) *Thread { return &Thread{Thread: ct, host: h} },
		func(as *vm.AddressSpace, region *core.Region) {
			h := &Host{
				sys:       s,
				Region:    region,
				twins:     make(map[int][]byte),
				dirtyInfo: make(map[int]core.Info),
				present:   make(map[int]core.Info),
			}
			h.Host = s.AddHost(as, h)
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Stats returns the cluster's counters.
func (s *System) Stats() Stats { return s.stats }

// Totals reports the run's protocol counters. Single-writer LRC never
// invalidates a remote copy and never queues a request.
func (s *System) Totals() cluster.Totals { return s.footprint() }

// Thread is an application thread's handle on the LRC DSM: the generic
// substrate surface. Barrier, Lock and Unlock get their release-consistency
// discipline from Host.Release and Host.Acquire.
type Thread struct {
	*cluster.Thread
	host *Host
}

// Alloc allocates shared memory (cluster.HostHandler); the allocating
// host becomes the home of the minipages the allocation opens.
func (h *Host) Alloc(p *sim.Proc, from, size int, local bool) (cluster.Allocation, error) {
	return h.sys.alloc(p, from, size)
}

// Mapped maps the allocation writable at its home (cluster.HostHandler).
// An allocation that extended another host's chunked minipage stays
// unmapped here: the first write must fault, or no twin and no diff
// would ever carry it home.
func (h *Host) Mapped(p *sim.Proc, a cluster.Allocation) {
	if a.Home == h.ID() {
		h.Region.Protect(a.Info.Base, a.Info.Size, vm.ReadWrite)
	}
}

func (h *Host) describe(m *pmsg) (int, uint64, int) { return h.sys.describe(m.Info) }

// Table places the header in the protocol's message table (cluster.Msg).
func (m *pmsg) Table() (cluster.Table, int) { return table, int(m.Type) }

// HandleFault services read and write faults in LRC fashion: fetch from
// home if absent; on write, twin and proceed — never invalidate other
// hosts.
func (h *Host) HandleFault(ctx any, f vm.Fault) error {
	t := ctx.(*Thread)
	c := h.Costs()
	p := t.Proc()
	s := h.sys

	// Identify the minipage (homes and the MPT are replicated read-only
	// state in this simplified realization).
	mp, okk := s.mpt.Lookup(f.Addr)
	if !okk {
		return fmt.Errorf("lrc: %#x outside any minipage", f.Addr)
	}
	info := mp.Info(s.Layout)
	home := s.homes[mp.ID]

	if prot, _ := h.Region.ProtOf(info.Base); prot == vm.NoAccess && home != h.ID() {
		// Fetch current contents from home.
		h.sys.stats.Fetches++
		if f.Kind == vm.Read {
			h.sys.stats.ReadFault++
		}
		fw := t.WaitSlot()
		t.Block(cluster.Blocking{For: "fault reply", FW: fw, Wake: c.ThreadWake + c.FaultResume,
			To: home, Request: &pmsg{Type: mFetchReq, From: h.ID(), Info: info, FW: fw}})
		h.present[mp.ID] = info
	}

	if f.Kind == vm.Write {
		// Twin and write locally; the diff travels at the next release.
		h.sys.stats.WriteFault++
		if _, dirty := h.twins[mp.ID]; !dirty {
			data, err := h.Region.ReadPriv(info.Base, info.Size)
			if err != nil {
				return err
			}
			h.twins[mp.ID] = twindiff.Twin(data)
			h.dirtyInfo[mp.ID] = info
			h.sys.stats.TwinsMade++
			p.Sleep(twindiff.TwinCost(info.Size))
		}
		p.Sleep(c.SetProt)
		return h.Region.Protect(info.Base, info.Size, vm.ReadWrite)
	}
	p.Sleep(c.SetProt)
	return h.Region.Protect(info.Base, info.Size, vm.ReadOnly)
}

// flushDiffs run-length-diffs every dirty minipage against its twin and
// flushes the diffs to the minipages' homes, blocking until every home
// has acked.
func (t *Thread) flushDiffs() {
	h := t.host
	s := h.sys
	c := h.Costs()
	p := t.Proc()

	dirty := make([]int, 0, len(h.twins))
	for id := range h.twins { //detlint:ok sorted below
		dirty = append(dirty, id)
	}
	slices.Sort(dirty) // deterministic flush order
	// Compute every diff first (charging the paper's diff-creation cost),
	// then arm the completion latch and send, so an early ack can never
	// release the latch while later diffs are still being encoded.
	type flush struct {
		home int
		info core.Info
		enc  []byte
	}
	var flushes []flush
	for _, id := range dirty {
		info := h.dirtyInfo[id]
		home := s.homes[id]
		cur, err := h.Region.ReadPriv(info.Base, info.Size)
		if err != nil {
			panic(err)
		}
		runs, err := twindiff.Diff(h.twins[id], cur)
		if err != nil {
			panic(err)
		}
		p.Sleep(twindiff.CreateCost(info.Size)) // the cost Millipage avoids
		delete(h.twins, id)
		delete(h.dirtyInfo, id)
		if home == h.ID() {
			continue // writes are already at home
		}
		enc, err := twindiff.Encode(runs)
		if err != nil {
			panic(err) // minipages are sub-page: offsets always fit the header
		}
		flushes = append(flushes, flush{home: home, info: info, enc: enc})
	}
	if len(flushes) > 0 {
		h.flushAwait = len(flushes)
		h.flushDone = sim.NewEvent(s.Eng)
		for _, f := range flushes {
			h.sys.stats.DiffsSent++
			h.sys.stats.DiffBytes += uint64(len(f.enc))
			h.Flush(p, h.PostSized(f.home, &pmsg{Type: mDiffFlush, From: h.ID(), Info: f.info, Diff: f.enc}, c.HeaderSize+len(f.enc)))
		}
		t.Block(cluster.Blocking{For: "flush done", On: h.flushDone, Wake: c.ThreadWake})
	}
}

// invalidatePresent drops every non-home copy this host holds, so the
// next access refetches the merged contents from the home.
func (t *Thread) invalidatePresent() {
	h := t.host
	c := h.Costs()
	p := t.Proc()
	ids := make([]int, 0, len(h.present))
	for id := range h.present { //detlint:ok sorted below
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		info := h.present[id]
		p.Sleep(c.SetProt)
		if err := h.Region.Protect(info.Base, info.Size, vm.NoAccess); err != nil {
			panic(err)
		}
		delete(h.present, id)
	}
}

// Release is the release half of the consistency model
// (cluster.Consistency): before a barrier arrival or an unlock leaves,
// this host's dirty minipages are flushed to their homes and acked, so
// the writes are visible to whoever synchronizes next. A lock request
// releases nothing.
func (h *Host) Release(ctx any, m *cluster.SvcMsg) {
	if m.Type != cluster.SvcLockReq {
		ctx.(*Thread).flushDiffs()
	}
}

// Acquire is the acquire half (cluster.Consistency): past a barrier or
// holding a fresh lock grant, the host drops its non-home copies, so its
// next accesses observe everything flushed before the synchronization.
func (h *Host) Acquire(ctx any, m *cluster.SvcMsg) { ctx.(*Thread).invalidatePresent() }

// table is the protocol's message table (cluster.MsgTable). No handler opens
// with a charge; a reply header and a flush ack run in engine context.
var table = cluster.Register(cluster.MsgTable[*Host, *pmsg]{Describe: (*Host).describe, Rows: []cluster.MsgSpec[*Host, *pmsg]{
	mFetchReq:   {Name: "FETCH_REQUEST", Handle: (*Host).fetch},
	mFetchReply: {Name: "FETCH_REPLY", Handle: cluster.Park[*Host, *pmsg], Engine: true},
	mFetchData:  {Name: "FETCH_DATA", Handle: (*Host).fetchData},
	mDiffFlush:  {Name: "DIFF_FLUSH", Handle: (*Host).diffFlush},
	mDiffAck:    {Name: "DIFF_ACK", Handle: (*Host).diffAck, Engine: true},
}})

// fetch ships the home's current copy (always readable at home via the
// privileged view), the bytes as the tail.
func (h *Host) fetch(p *sim.Proc, m *pmsg, _ *fastmsg.Message) *fastmsg.Message {
	data, err := h.Region.ReadPriv(m.Info.Base, m.Info.Size)
	if err != nil {
		panic(err)
	}
	reply := *m
	reply.Type = mFetchReply
	h.Send(p, m.From, &reply)
	return h.PostData(m.From, data, dataMarker)
}

func (h *Host) fetchData(p *sim.Proc, _ *pmsg, fm *fastmsg.Message) *fastmsg.Message {
	hdr := h.Unpark(fm).(*pmsg)
	if err := h.Region.WritePriv(hdr.Info.Base, fm.Data); err != nil {
		panic(err)
	}
	p.Sleep(h.Costs().SetProt)
	if err := h.Region.Protect(hdr.Info.Base, hdr.Info.Size, vm.ReadOnly); err != nil {
		panic(err)
	}
	hdr.FW.Info = hdr.Info
	hdr.FW.Ev.Set()
	return nil
}

func (h *Host) diffFlush(p *sim.Proc, m *pmsg, _ *fastmsg.Message) *fastmsg.Message {
	runs, err := twindiff.Decode(m.Diff)
	if err != nil {
		panic(err)
	}
	cur, err := h.Region.ReadPriv(m.Info.Base, m.Info.Size)
	if err != nil {
		panic(err)
	}
	if err := twindiff.Apply(cur, runs); err != nil {
		panic(err)
	}
	if err := h.Region.WritePriv(m.Info.Base, cur); err != nil {
		panic(err)
	}
	p.Sleep(twindiff.ApplyCost(len(m.Diff)))
	return h.Post(m.From, &pmsg{Type: mDiffAck, From: h.ID(), Info: m.Info})
}

func (h *Host) diffAck(*sim.Proc, *pmsg, *fastmsg.Message) *fastmsg.Message {
	if h.flushAwait--; h.flushAwait == 0 {
		h.flushDone.Set()
	}
	return nil
}
