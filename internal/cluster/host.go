package cluster

import (
	"fmt"

	"millipage/internal/fastmsg"
	"millipage/internal/sim"
	"millipage/internal/trace"
	"millipage/internal/vm"
)

// HostHandler is the per-host half of the Protocol interface: the policy
// callbacks the runtime invokes for the events it cannot interpret
// itself. See docs/PROTOCOL.md ("The Protocol interface") for the full
// contract, including determinism rules and trace obligations.
type HostHandler interface {
	// HandleFault services an application thread's access fault inside
	// the kernel's frame (Host.onFault), which has charged AccessFault and
	// books the elapsed time when it returns nil. ctx is the value
	// installed with Thread.SetSelf (the protocol's thread wrapper). It
	// runs in the faulting thread's simulated context and may Sleep, Send
	// and block.
	HandleFault(ctx any, f vm.Fault) error

	// HandleMessage dispatches one delivered protocol message in the
	// host's DSM server thread.
	HandleMessage(p *sim.Proc, fm *fastmsg.Message)

	// DescribeMsg extracts the trace fields from a protocol payload: the
	// registered op code (trace.RegisterOps base + message type), the
	// sharing-unit id, the address, and the home host (-1 when the message
	// carries none). Called only when tracing is enabled.
	DescribeMsg(payload any) (op uint16, mp int, addr uint64, home int)

	// Alloc is the allocator behind Thread.Malloc: carve size (> 0) bytes
	// for host from, seeding whatever directory state the new sharing
	// units need. It runs on the Coordinator — in the server thread for a
	// remote request, in the allocating thread itself when local — and
	// charges its own cost to p. An error means out of shared memory.
	Alloc(p *sim.Proc, from, size int, local bool) (Allocation, error)

	// Mapped runs on the allocating host once it knows its allocation —
	// in the server thread that received the reply, or in the thread
	// itself on the Coordinator — and maps the new bytes as the protocol
	// lets their allocator hold them.
	Mapped(p *sim.Proc, a Allocation)
}

// Host is one process of the simulated cluster: an address space, an FM
// endpoint whose service thread runs the protocol handlers, and the
// protocol's policy hooks.
type Host struct {
	rt      *Runtime
	id      int
	handler HostHandler
	cons    Consistency // handler's, if it is release-consistent
	log     NoticeLog   // handler's, if synchronization carries notices

	AS *vm.AddressSpace
	EP *fastmsg.Endpoint

	// inflight is the host's registry of blocking requests that must
	// survive faults: each entry was registered by a Thread.Block with a
	// Retry and stays until its thread wakes. An order-preserving slice — a map
	// would make crash recovery's re-send order depend on Go's hashing.
	inflight []*retryEntry

	freeRetry Pool[retryEntry]
	retrySeq  uint64    // arms so far; numbers the entries
	retryFn   func(any) // h.retryFire, bound at the first arm
}

// Resender is a requester's own record of a request in flight, held by a
// retry timer. Resend re-issues the request from it — a header already
// sent belongs to the handler that received it — possibly from engine
// context (p == nil), so it must not block. Release hands the record back.
type Resender interface {
	Resend(p *sim.Proc)
	Release()
}

// retryMax caps the exponential backoff of a re-send timer.
const retryMax = 200 * sim.Millisecond

// retryEntry is one armed re-send timer and, while its thread is parked
// in a Block with a Retry, the host's in-flight registration.
type retryEntry struct {
	fw    *Wait
	gen   uint64 // Wait generation at arming; staleness guard
	seq   uint64 // arming order on this host
	delay sim.Duration
	rs    Resender
	holds int // the one pending timer event, plus the thread parked on it
}

func (ent *retryEntry) stale() bool { return ent.fw.gen != ent.gen || ent.fw.Ev.IsSet() }

// ArmRetry starts a timer that calls rs.Resend(nil) after base, 2·base,
// ... (capped at retryMax) until fw's event is set or the slot is reset
// for a new transaction. The entry it returns is Thread.Block's business.
func (h *Host) ArmRetry(fw *Wait, base sim.Duration, rs Resender) *retryEntry {
	if h.retryFn == nil {
		h.retryFn = h.retryFire
	}
	h.retrySeq++
	ent := h.freeRetry.Get()
	*ent = retryEntry{fw: fw, gen: fw.gen, seq: h.retrySeq, delay: base, rs: rs, holds: 1}
	h.rt.Eng.AfterArg(base, h.retryFn, ent)
	return ent
}

// retryFire is the calendar-side entry of an armed timer.
func (h *Host) retryFire(a any) {
	ent := a.(*retryEntry)
	if ent.stale() {
		h.drop(ent)
		return
	}
	ent.rs.Resend(nil)
	if ent.delay *= 2; ent.delay > retryMax {
		ent.delay = retryMax
	}
	h.rt.Eng.AfterArg(ent.delay, h.retryFn, ent)
}

// drop gives up one hold on ent: the timer's when it fires stale, the
// thread's when it wakes. The last one out recycles it.
func (h *Host) drop(ent *retryEntry) {
	if ent.holds--; ent.holds == 0 {
		ent.rs.Release()
		h.freeRetry.Put(ent)
	}
}

// resendInflight re-issues every still-pending blocking request, in
// registration order, after crash recovery. Resend sleeps, so threads
// wake and register while the loop runs: it goes by arming number (the
// list's order) to visit the entries registered at its start, once each.
func (h *Host) resendInflight(p *sim.Proc) {
	for last, limit := uint64(0), h.retrySeq; ; {
		i := 0
		for i < len(h.inflight) && h.inflight[i].seq <= last {
			i++
		}
		if i == len(h.inflight) || h.inflight[i].seq > limit {
			return
		}
		ent := h.inflight[i]
		if last = ent.seq; !ent.stale() {
			ent.rs.Resend(p)
		}
	}
}

// ID returns the host id.
func (h *Host) ID() int { return h.id }

// Runtime returns the owning cluster runtime.
func (h *Host) Runtime() *Runtime { return h.rt }

// Costs returns the cluster's host-local cost table.
func (h *Host) Costs() Costs { return h.rt.Opt.Costs }

// onFault is the installed vm fault handler and the frame every fault is
// serviced in: it records the fault, charges the trap, has the protocol
// service it and books the time to the thread — as a read or a write
// fault, or as a wait on a prefetch in flight when the protocol said so
// (Thread.WaitedOnPrefetch). It runs in the faulting application thread's
// context — the analogue of the SEH handler the wrapper routine installs
// around each application thread (Section 3.5.1 of the paper).
func (h *Host) onFault(ctx any, f vm.Fault) error {
	if tr := h.rt.Trace; tr.Enabled() {
		tr.RecordFault(h.rt.Eng.Now(), h.id, f.Kind == vm.Write, f.Addr)
	}
	t, ok := ctx.(*Thread)
	if !ok {
		return fmt.Errorf("%s: host %d: fault at %#x outside an application thread", h.rt.Name, h.id, f.Addr)
	}
	start := t.p.Now()
	t.p.Sleep(h.rt.Opt.Costs.AccessFault)
	if err := h.handler.HandleFault(t.self, f); err != nil {
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
	t.prefetchWait = false
	*time += elapsed
	*n++
	hist.Add(elapsed)
	return nil
}

// onMessage records the dispatch, then serves a service message itself
// and delegates any other to the protocol's message handler, in the
// host's DSM server thread.
func (h *Host) onMessage(p *sim.Proc, fm *fastmsg.Message) {
	if tr := h.rt.Trace; tr.Enabled() {
		op, mp, _, home := h.describe(fm.Payload)
		tr.RecordMsg(p.Now(), trace.Handle, h.id, fm.From, home, op, mp, 0)
	}
	if m, ok := fm.Payload.(*SvcMsg); ok {
		h.serve(p, m)
		return
	}
	h.handler.HandleMessage(p, fm)
}

// describe is DescribeMsg with the kernel's own headers answered here.
func (h *Host) describe(payload any) (op uint16, mp int, addr uint64, home int) {
	if m, ok := payload.(*SvcMsg); ok {
		return svcOpBase + uint16(m.Type), -1, 0, -1
	}
	return h.handler.DescribeMsg(payload)
}

// Send ships a header-sized protocol message to host `to` in a pooled
// envelope (the envelope is recycled after the destination handler
// returns; the payload object survives).
func (h *Host) Send(p *sim.Proc, to int, payload any) {
	h.SendSized(p, to, payload, h.rt.Opt.Costs.HeaderSize)
}

// SendSized is Send with an explicit wire size, for protocols whose
// headers carry variable-length extras (lrc's encoded diffs).
func (h *Host) SendSized(p *sim.Proc, to int, payload any, size int) {
	h.EP.Send(p, to, h.envelope(to, payload, size))
}

// envelope records the send and wraps payload in a pooled envelope of
// the given wire size, for Send or for a call's Post (Thread.Step).
func (h *Host) envelope(to int, payload any, size int) *fastmsg.Message {
	if tr := h.rt.Trace; tr.Enabled() {
		op, mp, addr, home := h.describe(payload)
		tr.RecordMsg(h.rt.Eng.Now(), trace.Send, h.id, to, home, op, mp, addr)
	}
	fm := h.EP.AllocMessage()
	fm.Size = size
	fm.Payload = payload
	return fm
}

// SendData ships raw sharing-unit bytes (no header: FM delivers them
// directly into the destination's memory, the paper's zero-copy path).
// marker is the protocol's shared immutable data-message payload; bulk
// data is deliberately not traced — the preceding header send is.
func (h *Host) SendData(p *sim.Proc, to int, data []byte, marker any) {
	fm := h.EP.AllocMessage()
	fm.Size = len(data)
	fm.Data = data
	fm.Payload = marker
	h.EP.Send(p, to, fm)
}
