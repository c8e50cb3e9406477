package dsm

import (
	"fmt"

	"millipage/internal/fastmsg"
	"millipage/internal/sim"
	"millipage/internal/trace"
)

// The message tables a Host dispatches (dsm's, the coordinator's
// services'), and its send and receive paths.

// Msg is a header as a host dispatches it: its message table and
// its row there. Every payload a Host sends is one, data markers included.
type Msg interface {
	Table() (t Table, typ int)
	CheckLive(where string) // PoolState's
}

// Table is a *MsgTable as a host dispatches it.
type Table interface {
	describe(h *Host, typ int, payload any) (op uint16, mp int, addr uint64, home int)
	receive(h *Host, typ int, fm *fastmsg.Message) (front sim.Duration, engine bool)
	serve(h *Host, typ int, p *sim.Proc, fm *fastmsg.Message) (tail *fastmsg.Message)
}

// MsgTable is a message table, M its header type: a header's trace fields
// (-1, 0, -1: no sharing unit), a row a type.
type MsgTable[M any] struct {
	Describe func(h *Host, m M) (mp int, addr uint64, home int)
	Rows     []MsgSpec[M]
	op       uint16 // Rows[0]'s trace op code (Register)
}

// MsgSpec is what receiving one type does once RecvCPU is charged, all run
// by the receive sequence where the server thread ran it (DESIGN.md §6):
// Front, the charge its handler opens with (NoFront: none), set only where
// a "front:" line says why nothing observable precedes it; Handle, which
// returns its tail or nil. With Engine set Handle runs first in engine
// context, p nil, and returns fastmsg.Decline, before any effect, for a
// message it would wait on: the thread then runs it with p.
type MsgSpec[M any] struct {
	Name   string
	Front  func(h *Host, m M, fm *fastmsg.Message) sim.Duration
	Handle func(h *Host, p *sim.Proc, m M, fm *fastmsg.Message) (tail *fastmsg.Message)
	Engine bool
}

// Register registers t's type names with the trace recorder.
func Register[M any](t MsgTable[M]) *MsgTable[M] {
	names := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		names[i] = row.Name
	}
	t.op = trace.RegisterOps(names)
	return &t
}

func (t *MsgTable[M]) describe(h *Host, typ int, payload any) (uint16, int, uint64, int) {
	mp, addr, home := t.Describe(h, payload.(M))
	return t.op + uint16(typ), mp, addr, home
}

func (t *MsgTable[M]) receive(h *Host, typ int, fm *fastmsg.Message) (sim.Duration, bool) {
	if row := &t.Rows[typ]; row.Front != nil {
		return row.Front(h, fm.Payload.(M), fm), row.Engine
	}
	return fastmsg.NoFront, t.Rows[typ].Engine
}

func (t *MsgTable[M]) serve(h *Host, typ int, p *sim.Proc, fm *fastmsg.Message) (tail *fastmsg.Message) {
	h.inEngine, h.late = p == nil, false
	tail = t.Rows[typ].Handle(h, p, fm.Payload.(M), fm)
	h.inEngine = false
	if tail == fastmsg.Decline {
		h.checkDecline(fm)
	}
	return tail
}

// park is the row of a reply header whose bytes follow it on the same
// channel: it waits for them, by sender (unpark).
func park(h *Host, _ *sim.Proc, _ *pmsg, fm *fastmsg.Message) *fastmsg.Message {
	h.parked[fm.From] = fm.Payload
	return nil
}

// unpark takes the header parked for data message fm; Peek only looks.
func (h *Host) unpark(fm *fastmsg.Message) (hdr any) {
	hdr, h.parked[fm.From] = h.Peek(fm), nil
	return hdr
}

func (h *Host) Peek(fm *fastmsg.Message) any {
	hdr := h.parked[fm.From]
	if hdr == nil {
		panic(fmt.Sprintf("%s: host %d: data from %d with no pending header", h.sys.Name, h.id, fm.From))
	}
	return hdr
}

// Receive, Serve and Sending make the Host its endpoint's fastmsg.Server.
// Receive records the dispatch, at the RecvCPU resume as the thread did,
// and finds the message's row and its front; Serve runs the row.
func (h *Host) Receive(fm *fastmsg.Message) (sim.Duration, bool) {
	checkLive(fm.Payload, "receive")
	h.rx, h.rxType = fm.Payload.(Msg).Table()
	if tr := h.sys.Opt.Trace; tr.Enabled() {
		op, mp, _, home := h.rx.describe(h, h.rxType, fm.Payload)
		tr.RecordMsg(h.sys.Eng.Now(), trace.Handle, h.id, fm.From, home, op, mp, 0)
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
// posted envelope, for a handler's tail or Flush. postSized gives the wire
// size of a header with variable-length extras (lrc's encoded diffs). From
// an engine-context row the record waits for the send's turn (Sending).
func (h *Host) Post(to int, payload any) *fastmsg.Message {
	return h.postSized(to, payload, h.Costs().HeaderSize)
}

func (h *Host) postSized(to int, payload any, size int) *fastmsg.Message {
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
// begins: where the thread, sending in-process, posted it. (postData's
// bytes, which are never nil, are not traced.)
func (h *Host) Sending(fm *fastmsg.Message) {
	if h.late && fm.Data == nil {
		h.stamp(fm)
	}
}

func (h *Host) stamp(fm *fastmsg.Message) {
	if tr := h.sys.Opt.Trace; tr.Enabled() {
		t, typ := fm.Payload.(Msg).Table()
		op, mp, addr, home := t.describe(h, typ, fm.Payload)
		tr.RecordMsg(h.sys.Eng.Now(), trace.Send, h.id, fm.To, home, op, mp, addr)
	}
}

// postData posts raw sharing-unit bytes (no header: FM delivers them
// directly into the destination's memory, the paper's zero-copy path);
// marker is the protocol's immutable data payload. The header is traced.
func (h *Host) postData(to int, data []byte, marker any) *fastmsg.Message {
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
