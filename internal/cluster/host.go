package cluster

import (
	"fmt"

	"millipage/internal/fastmsg"
	"millipage/internal/sim"
	"millipage/internal/trace"
	"millipage/internal/vm"
)

// HostHandler is the per-host seam to the protocol: the callbacks the
// runtime invokes for the events it cannot interpret itself. See
// docs/PROTOCOL.md ("The kernel and its one implementation") for the
// contract, including determinism rules and trace obligations.
type HostHandler interface {
	// HandleFault services an application thread's access fault inside
	// the kernel's frame (Host.onFault), which has charged AccessFault and
	// books the elapsed time when it returns nil. ctx is the value
	// installed with Thread.SetSelf (the protocol's thread wrapper). It
	// runs in the faulting thread's simulated context and may Sleep, Send
	// and block.
	HandleFault(ctx any, f vm.Fault) error

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

// Msg is a header as the kernel sees it: its protocol's message table and
// its row there. Every payload a Host sends is one, data markers included.
type Msg interface {
	Table() (t Table, typ int)
	CheckLive(where string) // PoolState's
}

// Table is a *MsgTable as the kernel dispatches it.
type Table interface {
	describe(h *Host, typ int, payload any) (op uint16, mp int, addr uint64, home int)
	receive(h *Host, typ int, fm *fastmsg.Message) (front sim.Duration, engine bool)
	serve(h *Host, typ int, p *sim.Proc, fm *fastmsg.Message) (tail *fastmsg.Message)
}

// MsgTable is a protocol's message table, H its host type and M its header
// type: a header's trace fields (-1, 0, -1: no sharing unit), a row a type.
type MsgTable[H, M any] struct {
	Describe func(h H, m M) (mp int, addr uint64, home int)
	Rows     []MsgSpec[H, M]
	op       uint16 // Rows[0]'s trace op code (Register)
}

// MsgSpec is what receiving one type does once RecvCPU is charged, all run
// by the receive sequence where the server thread ran it (DESIGN.md §6):
// Front, the charge its handler opens with (NoFront: none), set only where
// a "front:" line says why nothing observable precedes it; Handle, which
// returns its tail or nil. With Engine set Handle runs first in engine
// context, p nil, and returns fastmsg.Decline, before any effect, for a
// message it would wait on: the thread then runs it with p.
type MsgSpec[H, M any] struct {
	Name   string
	Front  func(h H, m M, fm *fastmsg.Message) sim.Duration
	Handle func(h H, p *sim.Proc, m M, fm *fastmsg.Message) (tail *fastmsg.Message)
	Engine bool
}

// Register registers t's type names with the trace recorder.
func Register[H, M any](t MsgTable[H, M]) *MsgTable[H, M] {
	names := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		names[i] = row.Name
	}
	t.op = trace.RegisterOps(names)
	return &t
}

func (t *MsgTable[H, M]) describe(h *Host, typ int, payload any) (uint16, int, uint64, int) {
	mp, addr, home := t.Describe(hostOf[H](h), payload.(M))
	return t.op + uint16(typ), mp, addr, home
}

func (t *MsgTable[H, M]) receive(h *Host, typ int, fm *fastmsg.Message) (sim.Duration, bool) {
	if row := &t.Rows[typ]; row.Front != nil {
		return row.Front(hostOf[H](h), fm.Payload.(M), fm), row.Engine
	}
	return fastmsg.NoFront, t.Rows[typ].Engine
}

func (t *MsgTable[H, M]) serve(h *Host, typ int, p *sim.Proc, fm *fastmsg.Message) (tail *fastmsg.Message) {
	h.inEngine, h.late = p == nil, false
	tail = t.Rows[typ].Handle(hostOf[H](h), p, fm.Payload.(M), fm)
	h.inEngine = false
	if tail == fastmsg.Decline {
		h.checkDecline(fm)
	}
	return tail
}

// hostOf is h as a table's host type: the kernel's own, or the protocol's.
func hostOf[H any](h *Host) H {
	if k, ok := h.handler.(H); ok {
		return k
	}
	return any(h).(H)
}

// Park is the row of a reply header whose bytes follow it on the same
// channel: it waits for them, by sender, in the kernel (Unpark).
func Park[H interface{ park(*fastmsg.Message) }, M any](h H, _ *sim.Proc, _ M, fm *fastmsg.Message) *fastmsg.Message {
	h.park(fm)
	return nil
}

func (h *Host) park(fm *fastmsg.Message) { h.parked[fm.From] = fm.Payload }

// Unpark takes the header parked for data message fm; Peek only looks.
func (h *Host) Unpark(fm *fastmsg.Message) (hdr any) {
	hdr, h.parked[fm.From] = h.Peek(fm), nil
	return hdr
}

func (h *Host) Peek(fm *fastmsg.Message) any {
	hdr := h.parked[fm.From]
	if hdr == nil {
		panic(fmt.Sprintf("%s: host %d: data from %d with no pending header", h.rt.Name, h.id, fm.From))
	}
	return hdr
}

// Host is one process of the simulated cluster: an address space, an FM
// endpoint whose service thread runs the protocol handlers, and the
// protocol's policy hooks.
type Host struct {
	rt      *Runtime
	id      int
	handler HostHandler
	cons    Consistency // the protocol's synchronization hooks (SC's: the barrier half), or nil

	AS *vm.AddressSpace
	EP *fastmsg.Endpoint

	node, parent, expect int       // its place in the barrier tree (barrierTree)
	got                  []*SvcMsg // what it collected of the episode so far

	parked   []any // reply headers waiting for their bytes, by sender (Park)
	rx       Table // the table and row of the message in service (Receive)
	rxType   int
	inEngine bool // an engine-context row is running: Flush(nil) queues
	late     bool // the row in service posted there: Sending stamps its sends
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

// Receive, Serve and Sending make the Host its endpoint's fastmsg.Server.
// Receive records the dispatch, at the RecvCPU resume as the thread did,
// and finds the message's row and its front; Serve runs the row.
func (h *Host) Receive(fm *fastmsg.Message) (sim.Duration, bool) {
	checkLive(fm.Payload, "receive")
	h.rx, h.rxType = fm.Payload.(Msg).Table()
	if tr := h.rt.Trace; tr.Enabled() {
		op, mp, _, home := h.rx.describe(h, h.rxType, fm.Payload)
		tr.RecordMsg(h.rt.Eng.Now(), trace.Handle, h.id, fm.From, home, op, mp, 0)
	}
	return h.rx.receive(h, h.rxType, fm)
}

func (h *Host) Serve(p *sim.Proc, fm *fastmsg.Message) *fastmsg.Message {
	return h.rx.serve(h, h.rxType, p, fm)
}

// Send ships a header-sized protocol message to host `to` in a pooled
// envelope, recycled after the destination handler returns, and with it
// the ownership of the header.
func (h *Host) Send(p *sim.Proc, to int, payload any) { h.Flush(p, h.Post(to, payload)) }

// Post is Send up to the charge: it records the send and returns the
// posted envelope, for a handler's tail or Flush. PostSized gives the wire
// size of a header with variable-length extras (lrc's encoded diffs). From
// an engine-context row the record waits for the send's turn (Sending).
func (h *Host) Post(to int, payload any) *fastmsg.Message {
	return h.PostSized(to, payload, h.rt.Opt.Costs.HeaderSize)
}

func (h *Host) PostSized(to int, payload any, size int) *fastmsg.Message {
	checkLive(payload, "Send")
	fm := h.EP.AllocMessage()
	fm.Size, fm.Payload = size, payload
	h.EP.Post(to, fm)
	if h.inEngine {
		h.late = true
	} else {
		h.stamp(fm)
	}
	return fm
}

// Sending stamps a header an engine-context row posted as its charge
// begins: where the thread, sending in-process, posted it. (PostData's
// bytes, which are never nil, are not traced.)
func (h *Host) Sending(fm *fastmsg.Message) {
	if h.late && fm.Data == nil {
		h.stamp(fm)
	}
}

func (h *Host) stamp(fm *fastmsg.Message) {
	if tr := h.rt.Trace; tr.Enabled() {
		t, typ := fm.Payload.(Msg).Table()
		op, mp, addr, home := t.describe(h, typ, fm.Payload)
		tr.RecordMsg(h.rt.Eng.Now(), trace.Send, h.id, fm.To, home, op, mp, addr)
	}
}

// PostData posts raw sharing-unit bytes (no header: FM delivers them
// directly into the destination's memory, the paper's zero-copy path);
// marker is the protocol's immutable data payload. The header is traced.
func (h *Host) PostData(to int, data []byte, marker any) *fastmsg.Message {
	fm := h.EP.AllocMessage()
	fm.Size, fm.Data, fm.Payload = len(data), data, marker
	h.EP.Post(to, fm)
	h.late = h.late || h.inEngine // for checkDecline; the bytes are not traced
	return fm
}

// Flush is the rest of Send for a posted envelope, if any: charge p and
// transmit. With p nil an engine-context row queues it, for the receive
// sequence to charge.
func (h *Host) Flush(p *sim.Proc, fm *fastmsg.Message) {
	switch {
	case fm == nil:
	case p == nil && h.inEngine:
		h.EP.Queue(fm)
	default:
		h.EP.Finish(p, fm)
	}
}
