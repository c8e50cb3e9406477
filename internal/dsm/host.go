package dsm

import (
	"fmt"

	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// Host is one process of the simulated cluster: an address space and its
// MultiView region, an FM endpoint whose service thread runs the message
// handlers, its place in the barrier tree and the class's per-host state.
type Host struct {
	sys    *System
	id     int
	AS     *vm.AddressSpace
	EP     *fastmsg.Endpoint
	Region *core.Region

	Stats ManagerStats // the SC directory's, for the minipages homed here

	// prefetchSpans tracks in-flight prefetch requests so a fault into a
	// prefetched region is accounted as prefetch wait, not a read fault.
	prefetchSpans []span

	homes []int16 // homeOf's table as of epoch, the barriers this host was released from
	epoch uint32
	early FIFO // directory messages routed in a later epoch (dir)

	node, parent, expect int    // its place in the barrier tree (barrierTree)
	got                  []*Msg // what it collected of the episode so far

	parked   []*Msg // reply headers waiting for their bytes, by sender (park)
	inEngine bool   // an engine-context row is running: flush(nil) queues
	late     bool   // the row in service posted there: Sending stamps its sends

	mwHost // lrc-mw's
}

// ID returns the host id.
func (h *Host) ID() int { return h.id }

// Costs returns the cluster's host-local cost table.
func (h *Host) Costs() Costs { return h.sys.Opt.Costs }

// Collected returns the barrier arrivals h holds of the episode in
// progress: collecting them, or waiting for its group's release.
func (h *Host) Collected() int { return len(h.got) }

// allocPM returns a protocol header from the cluster's freelist, set to v.
//
// A header has one owner at a time, with and without a fault plan: the
// sender until Send, then the handler that receives it — which the
// transport runs exactly once per message, duplicates and retransmits
// included. The owner forwards it (mutate and resend), parks it (a
// directory queue, park) or recycles it. Requesters keep no copy.
func (h *Host) allocPM(v Msg) *Msg {
	m := h.sys.freePM.Get()
	*m = v
	return m
}

// recyclePM returns a header its owner is done with to the freelist.
// Only headers obtained from allocPM may be recycled — never dataMarker.
func (h *Host) recyclePM(m *Msg) { h.sys.freePM.Put(m) }

// sendNew ships a fresh pooled header holding v; postNew posts it.
func (h *Host) sendNew(p *sim.Proc, to int, v Msg) { h.flush(p, h.postNew(to, v)) }

func (h *Host) postNew(to int, v Msg) *fastmsg.Message { return h.post(to, h.allocPM(v)) }

// call is sendNew for a request whose reply thread t then waits for, as b
// says: send and wait are one sequence (Thread.Block).
func (t *Thread) call(to int, v Msg, b Blocking) {
	b.To, b.Request = to, t.host.allocPM(v)
	t.Block(b)
}

// request is a requester's record of one directory request in flight (a
// faulting thread blocks on one at a time; a prefetch has its own): the
// rendezvous its reply fills in, and the count of invalidation replies
// that holds a write back until every copy the home invalidated is gone.
type request struct {
	h    *Host
	fw   *Wait
	owed int  // announced by the reply and not yet in; below zero while replies lead it
	excl bool // a read sent exclusive: if the home served it so, its copy lands marked (raise)
}

// settles reports whether counting n, the Invals of a header for r,
// completes r: the reply announces the invalidations sent, each of their
// replies counts -1. The count reaches zero only once all are in, as it
// stays below zero until the announcement. A push's header has no request.
func (r *request) settles(n int32) bool { return r == nil || r.owed+int(n) == 0 }

func (r *request) settle(n int32) bool { r.owed += int(n); return r.owed == 0 }

func (r *request) wake(info core.Info) { r.fw.Info = info; r.fw.Ev.Set() }

// closing is the ack that closes the transaction at the minipage's home
// once the reply is in (Blocking.Close).
func (r *request) closing() (int, *Msg) {
	h, info := r.h, r.fw.Info
	return h.homeOf(info.ID), h.allocPM(Msg{Type: mAck, From: h.ID(), Info: info, Epoch: h.epoch})
}

type span struct {
	base uint64
	size int
}

func (sp span) contains(va uint64) bool {
	return va >= sp.base && va < sp.base+uint64(sp.size)
}

// describe gives the trace a header's minipage, address and home host, as
// this host knows it — no minipage and no home (-1) for a bulk data
// message, whose shared marker carries no translation record, nor for the
// coordinator's services, which concern no sharing unit (nor address).
func (h *Host) describe(m *Msg) (mp int, addr uint64, home int) {
	switch {
	case m.Type >= mAllocReq:
		return -1, 0, -1
	case m.Info.Size == 0:
		return -1, m.Addr, -1
	}
	return m.Info.ID, m.Addr, h.homeOf(m.Info.ID)
}

// route is Figure 3's Translate, run at the requester: it resolves va
// against this host's MPT replica and returns the host that runs the
// minipage's directory transaction, with the translation the request
// carries there, so no home ever looks an address up. The caller charges
// the MPTLookup, on its own thread. Both classes' faults look up here.
func (h *Host) route(va uint64) (home int, info core.Info, err error) {
	mp, ok := h.sys.mpt.Lookup(va)
	if !ok {
		return 0, info, fmt.Errorf("%#x is not in any minipage", va)
	}
	return h.homeOf(mp.ID), mp.Info(h.sys.Layout), nil
}

// readMinipage snapshots a minipage's bytes through the privileged view
// into a pooled buffer (recycled by the receiver once installed).
func (h *Host) readMinipage(info core.Info) []byte {
	data := h.sys.freeBuf.Get(info.Size)
	if err := h.Region.ReadPrivInto(info.Base, data); err != nil {
		panic(fmt.Sprintf("dsm: host %d: privileged read of %+v: %v", h.ID(), info, err))
	}
	return data
}

// onFault is the installed vm fault handler and the frame every fault is
// serviced in: it records the fault, charges the trap, has the class
// service it and books the time to the thread — as a read or a write
// fault, or as a wait on a prefetch in flight when the service said so
// (Thread.prefetchWait). It runs in the faulting application thread's
// context, the Thread every access passes vm — the analogue of the SEH
// handler the wrapper routine installs around each application thread
// (Section 3.5.1 of the paper).
func (h *Host) onFault(ctx any, f vm.Fault) error {
	if tr := h.sys.Opt.Trace; tr.Enabled() {
		tr.RecordFault(h.sys.Eng.Now(), h.id, f.Kind == vm.Write, f.Addr)
	}
	t := ctx.(*Thread)
	start := t.p.Now()
	t.p.Sleep(h.Costs().AccessFault)
	if err := h.handleFault(t, f); err != nil {
		return err
	}
	elapsed := t.p.Now().Sub(start)
	st := &t.Stats
	time, n, hist := &st.ReadFaultTime, &st.ReadFaults, &st.ReadFaultHist
	switch {
	case f.Kind == vm.Write:
		time, n, hist = &st.WriteFaultTime, &st.WriteFaults, &st.WriteFaultHist
	case t.prefetchWait:
		time = &st.PrefetchTime
	}
	*time += elapsed
	*n++
	hist.Add(elapsed)
	return nil
}

// handleFault services one application access fault inside onFault's
// frame.
//
// Per Figure 3 ("On Read or Write Fault"): translate the faulting address
// (route), send the request to the minipage's home, wait on the thread's
// event and, on wakeup, send the transaction-closing ack; the lookup is
// the first charge of that one wait sequence and the ack its last.
func (h *Host) handleFault(t *Thread, f vm.Fault) error {
	if h.sys.mw {
		return t.mwFault(f)
	}
	c := h.Costs()
	t.prefetchWait = t.inPrefetchSpan(f.Addr) // before the wait, whose end finds the span cleared
	if Invariants && t.req.owed != 0 {
		panic(fmt.Sprintf("dsm: host %d: a fault reuses a request that counts %d invalidation replies", h.ID(), t.req.owed))
	}
	home, info, err := h.route(f.Addr)
	if err != nil {
		return err
	}
	typ, excl := mReadReq, f.Kind == vm.Read && t.HoldsLock() && h.marked(info.ID, rmwMark)
	if f.Kind == vm.Write {
		if h.unmark(info.ID, exclMark) { // the only copy: raise it here, then pay for it
			h.protect(info, vm.ReadWrite)
			t.p.Sleep(c.MPTLookup + c.SetProt + c.FaultResume)
			return nil
		}
		if typ = mWriteReq; t.HoldsLock() { // a read-modify-write: the next read under a lock goes exclusive
			h.mark(info.ID, rmwMark)
		}
	}
	fw := t.WaitSlot()
	t.req = request{h: h, fw: fw, excl: excl}
	t.call(home, Msg{Type: typ, From: h.ID(), Addr: f.Addr, Info: info, Excl: excl, Req: &t.req, Epoch: h.epoch}, Blocking{
		For: "fault reply", FW: fw, Lead: c.MPTLookup, Pre: c.BlockThread, Wake: c.ThreadWake + c.FaultResume, Close: &t.req,
	}) // the host may go idle; the poller takes over
	return nil
}

// inPrefetchSpan reports whether va falls in a region with an in-flight
// prefetch issued by this host.
func (t *Thread) inPrefetchSpan(va uint64) bool {
	for _, sp := range t.host.prefetchSpans {
		if sp.contains(va) {
			return true
		}
	}
	return false
}

func getProt(h *Host, _ *Msg, _ *fastmsg.Message) sim.Duration { return h.Costs().GetProt }
func setProt(h *Host, _ *Msg, _ *fastmsg.Message) sim.Duration { return h.Costs().SetProt }

// installFront is a reply's install, and its protection change if the
// reply completes its request: a write's copy stays as it is until the
// last invalidation reply is in.
func (h *Host) installFront(_ *Msg, fm *fastmsg.Message) sim.Duration {
	c, hdr := h.Costs(), h.peek(fm)
	d := sim.Duration(len(fm.Data)) * c.InstallPerByte
	if hdr.Req.settles(hdr.Invals) {
		d += c.SetProt
	}
	return d
}

func (h *Host) settleFront(m *Msg, _ *fastmsg.Message) sim.Duration {
	if m.Req.settles(m.Invals) {
		return h.Costs().SetProt
	}
	return fastmsg.NoFront
}

// readFwdFront is READ_FWD's probe, and a writable copy's downgrade.
func (h *Host) readFwdFront(m *Msg, _ *fastmsg.Message) sim.Duration {
	c := h.Costs()
	if h.writable(m) {
		return c.GetProt + c.SetProt
	}
	return c.GetProt
}

// writable reports whether this host's copy of m's minipage is ReadWrite.
func (h *Host) writable(m *Msg) bool {
	prot, _ := h.Region.ProtOf(m.Info.Base)
	return prot == vm.ReadWrite
}

// readFwd is Handle Read Request: downgrade a writable copy (charged in
// the front, after the probe), then reply with header and data straight
// out of the privileged view.
func (h *Host) readFwd(p *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	h.lose(m.Info.ID)
	if h.writable(m) {
		h.protect(m.Info, vm.ReadOnly)
	}
	return h.replyWithData(p, m, mReadReply)
}

// writeFwd is Handle Write Request: invalidate own copy, reply with data.
// The privileged view still reaches the bytes after the application views
// are NoAccess — that is what makes this safe and atomic.
func (h *Host) writeFwd(p *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	h.lose(m.Info.ID)
	h.protect(m.Info, vm.NoAccess)
	return h.replyWithData(p, m, mWriteReply)
}

// invalidate drops this host's copy. The request turns around as the
// reply to the writer, which counts it (settleWrite).
func (h *Host) invalidate(_ *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	h.protect(m.Info, vm.NoAccess)
	writer := m.From
	*m = Msg{Type: mInvalidateReply, From: h.ID(), Info: m.Info, Invals: -1, Req: m.Req}
	return h.post(writer, m)
}

// data installs the bytes its parked header announced. The thread serves a
// prefetch's, whose waiters wake only after its ack is charged.
func (h *Host) data(p *sim.Proc, _ *Msg, fm *fastmsg.Message) *fastmsg.Message {
	if p == nil && h.peek(fm).Prefetch {
		return fastmsg.Decline
	}
	hdr := h.unpark(fm)
	h.installMinipage(p, hdr, fm.Data)
	h.recyclePM(hdr)
	h.sys.freeBuf.Put(fm.Data)
	return nil
}

// settleWrite counts an upgrade's grant or one invalidation reply at the
// writer. The one that completes the count raises the copy to ReadWrite
// (charged in the front) and releases the thread, whose ack then closes
// the transaction: no other copy is readable by then.
func (h *Host) settleWrite(_ *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	if m.Req.settle(m.Invals) {
		h.raise(m.Info, m.Req, true)
		m.Req.wake(m.Info)
	}
	h.recyclePM(m)
	return nil
}

// raise maps the copy request r completes: ReadOnly for a read, ReadWrite
// for a write, and for a read the home served as a write miss ReadOnly,
// marked as the only copy.
func (h *Host) raise(info core.Info, r *request, write bool) {
	prot := vm.ReadOnly
	if write && r.excl {
		h.mark(info.ID, exclMark)
	} else if write {
		prot = vm.ReadWrite
	}
	h.protect(info, prot)
}

// protect sets this host's application-view protection of a minipage.
// Under -tags invariants an SC minipage then holds SW/MR, or it panics: a
// writable copy is the only copy anywhere.
func (h *Host) protect(info core.Info, prot vm.Prot) {
	must(h.Region.Protect(info.Base, info.Size, prot))
	held, writer := 0, -1
	for i := 0; Invariants && !h.sys.mw && i < h.sys.NumHosts(); i++ {
		if prot, _ := h.sys.Host(i).Region.ProtOf(info.Base); prot != vm.NoAccess {
			held++
			if prot == vm.ReadWrite {
				writer = i
			}
		}
	}
	if writer >= 0 && held > 1 {
		panic(fmt.Sprintf("dsm: host %d holds minipage %d writable beside %d other copies, as host %d sets it %v", writer, info.ID, held-1, h.ID(), prot))
	}
}

// must panics on err: the region and the diffs it is handed are the
// protocol's own, so an error is a protocol bug.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// alloc is the allocator behind Malloc, run on the Coordinator for request
// m, which it turns into the answer: the address, the sharing unit the
// bytes landed in and whether the requester owns it (Addr, Info, Owner). A
// remote request pays the allocator's bookkeeping in the server thread;
// the Coordinator's own malloc is an in-process call on the MPT, as in the
// real library, and under SC pays the lookup with it. Running out of
// shared memory is the application's misuse.
func (h *Host) alloc(p *sim.Proc, m *Msg, local bool) {
	var err error
	if h.sys.mw {
		err = h.mwAlloc(p, m)
	} else {
		c := h.Costs()
		cost := c.MallocBase
		if local {
			cost += c.MPTLookup
		}
		p.Sleep(cost)
		err = h.allocLocal(m)
	}
	if err != nil {
		h.sys.misuse(m.From, "Malloc(%d): %v", m.Size, err)
	}
}

// mapped runs on the allocating host once it knows its allocation m — in
// the server thread that received the reply, or in the thread itself on
// the Coordinator — and gives it the minipages it owns writable with no
// fault: allocLocal's Info covers every one of them (lrc-mw's own none).
func (h *Host) mapped(p *sim.Proc, m *Msg) {
	if h.sys.mw {
		h.mwMapped(m.Info)
	}
	if !m.Owner {
		return
	}
	p.Sleep(h.Costs().SetProt)
	h.protect(m.Info, vm.ReadWrite)
}

// replyWithData answers a forwarded request from the privileged view:
// the forward itself turns around as the reply header, and the minipage
// bytes follow on the same channel, as the tail. They are snapshot before
// the header's charge; nothing can write them during it, as this host's
// copy is ReadOnly or NoAccess and its privileged view is this thread's.
func (h *Host) replyWithData(p *sim.Proc, m *Msg, typ mtype) *fastmsg.Message {
	to, data := m.From, h.readMinipage(m.Info)
	m.Type = typ
	h.send(p, to, m)
	return h.postData(to, data)
}

// installMinipage receives minipage contents into the privileged view,
// raises the application-view protection, and releases whoever waits.
// This is Figure 3's "Handle Read or Write Reply". A write's reply that
// still counts invalidation replies leaves the copy as it is: the last of
// them raises it (settleWrite).
func (h *Host) installMinipage(p *sim.Proc, hdr *Msg, data []byte) {
	if len(data) != hdr.Info.Size {
		panic(fmt.Sprintf("dsm: host %d: minipage %d size mismatch: got %d want %d",
			h.ID(), hdr.Info.ID, len(data), hdr.Info.Size))
	}
	must(h.Region.WritePriv(hdr.Info.Base, data))
	home := h.homeOf(hdr.Info.ID)
	if hdr.Type == mPushData {
		// Pushed replica: ack to the home; nobody is waiting.
		h.protect(hdr.Info, vm.ReadOnly)
		h.sendNew(p, home, Msg{Type: mPushAck, From: h.ID(), Info: hdr.Info, Epoch: h.epoch})
		return
	}
	if !hdr.Req.settle(hdr.Invals) {
		return
	}
	h.raise(hdr.Info, hdr.Req, hdr.Type == mWriteReply)
	if hdr.Prefetch {
		// Prefetch completion: the server thread closes the transaction.
		h.clearPrefetchSpan(hdr.Info)
		h.sendNew(p, home, Msg{Type: mAck, From: h.ID(), Info: hdr.Info, Epoch: h.epoch})
	}
	hdr.Req.wake(hdr.Info)
}

// servePush is the owner side of a push update: downgrade to ReadOnly,
// then replicate the minipage to every other host.
func (h *Host) servePush(p *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	h.lose(m.Info.ID)
	if h.writable(m) {
		p.Sleep(h.Costs().SetProt)
		h.protect(m.Info, vm.ReadOnly)
	}
	for i := 0; i < h.sys.NumHosts(); i++ {
		if i == h.ID() {
			continue
		}
		hdr := h.allocPM(*m)
		hdr.Type = mPushData
		h.send(p, i, hdr)
		// One snapshot per destination: each buffer is recycled
		// independently by its receiver's install path.
		h.flush(p, h.postData(i, h.readMinipage(m.Info)))
	}
	h.recyclePM(m) // the push order ends here
	return nil
}

// clearPrefetchSpan removes the in-flight markers satisfied by the
// installed minipage. A span is recorded at the address the application
// passed to Prefetch/GangFetch, which need not be minipage-aligned, so
// matching is by containment — the span whose base lies inside the
// fetched minipage was resolved to exactly this minipage when the
// request was issued. Matching on base equality instead would leak the
// span forever for unaligned prefetches, misclassifying every later
// fault in the range as a prefetch wait and silently disabling every
// later Prefetch of it.
func (h *Host) clearPrefetchSpan(info core.Info) {
	end := info.Base + uint64(info.Size)
	kept := h.prefetchSpans[:0]
	for _, sp := range h.prefetchSpans {
		if sp.base >= info.Base && sp.base < end {
			continue
		}
		kept = append(kept, sp)
	}
	h.prefetchSpans = kept
}
