package dsm

import (
	"fmt"

	"millipage/internal/fastmsg"
	"millipage/internal/sim"
	"millipage/internal/trace"
)

// The message table a Host dispatches, and its send and receive paths.

// row is what receiving one type does once RecvCPU is charged, all run by
// the receive sequence where the server thread ran it (DESIGN.md §6):
// Front, the charge its handler opens with (NoFront: none), set only where
// a "front:" line says why nothing observable precedes it; Handle, which
// returns its tail or nil. With Engine set Handle runs first in engine
// context, p nil, and returns fastmsg.Decline, before any effect, for a
// message it would wait on: the thread then runs it with p.
type row struct {
	Name   string
	Front  func(h *Host, m *Msg, fm *fastmsg.Message) sim.Duration
	Handle func(h *Host, p *sim.Proc, m *Msg, fm *fastmsg.Message) (tail *fastmsg.Message)
	Engine bool
}

// rows is the message table, a row a type. Directory traffic goes to this
// host's directory, which checks that the minipage is homed here (resolve,
// entry). Everything else is the thin non-manager protocol of Figure 3 —
// note that it does no queuing, no table lookups and no translation of any
// kind — lrc-mw's diff flush, which opens with no charge, and the
// coordinator's services. Setting an event, collecting or releasing a
// barrier, granting a lock or queueing its request never waits (nor does
// the coordinator's class work): those rows run in engine context, the
// last send as the tail.
var rows = [...]row{
	mReadReq:  {Name: "READ_REQUEST", Handle: dir, Engine: true},
	mWriteReq: {Name: "WRITE_REQUEST", Handle: dir, Engine: true},
	mPushReq:  {Name: "PUSH_REQUEST", Handle: dir},
	// front: these open with a protection probe or change (and READ_FWD a writable
	// copy's downgrade after its probe); nothing before it.
	mReadFwd:       {Name: "READ_FWD", Front: (*Host).readFwdFront, Handle: (*Host).readFwd, Engine: true},
	mWriteFwd:      {Name: "WRITE_FWD", Front: setProt, Handle: (*Host).writeFwd, Engine: true},
	mInvalidateReq: {Name: "INVALIDATE_REQUEST", Front: setProt, Handle: (*Host).invalidate, Engine: true},
	mPushOrder:     {Name: "PUSH_ORDER", Front: getProt, Handle: (*Host).servePush},
	// front: a write's grant and its invalidation replies are counted at the writer;
	// the one that completes the count opens with raising the copy.
	mUpgradeGrant:    {Name: "UPGRADE_GRANT", Front: (*Host).settleFront, Handle: (*Host).settleWrite, Engine: true},
	mInvalidateReply: {Name: "INVALIDATE_REPLY", Front: (*Host).settleFront, Handle: (*Host).settleWrite, Engine: true},
	// front: a reply opens with its install. Its bytes land after the charge, through
	// the privileged view only this thread uses, in a copy NoAccess here (or ReadOnly, same bytes).
	mData:      {Name: "DATA", Front: (*Host).installFront, Handle: (*Host).data, Engine: true},
	mReadReply: {Name: "READ_REPLY", Handle: park, Engine: true}, mWriteReply: {Name: "WRITE_REPLY", Handle: park, Engine: true},
	mPushData: {Name: "PUSH_DATA", Handle: park, Engine: true},
	mAck:      {Name: "ACK", Handle: dir, Engine: true}, mPushAck: {Name: "PUSH_ACK", Handle: dir},
	mDiffFlush: {Name: "MW_DIFF_FLUSH", Handle: (*Host).diffFlush},

	mAllocReq:       {Name: "ALLOC_REQUEST", Handle: (*Host).allocRequest},
	mAllocReply:     {Name: "ALLOC_REPLY", Handle: (*Host).allocReply},
	mBarrierArrive:  {Name: "BARRIER_ARRIVE", Handle: (*Host).barrierArrive, Engine: true},
	mBarrierRelease: {Name: "BARRIER_RELEASE", Handle: (*Host).barrierRelease, Engine: true},
	mLockReq:        {Name: "LOCK_REQUEST", Handle: (*Host).lockRequest, Engine: true},
	mLockGrant:      {Name: "LOCK_GRANT", Handle: (*Host).answer, Engine: true},
	mUnlock:         {Name: "UNLOCK", Handle: (*Host).unlock, Engine: true},
}

func init() {
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Name
	}
	trace.RegisterOps(names)
}

// park is the row of a reply header whose bytes follow it on the same
// channel: it waits for them, by sender (unpark).
func park(h *Host, _ *sim.Proc, m *Msg, fm *fastmsg.Message) *fastmsg.Message {
	h.parked[fm.From] = m
	return nil
}

// unpark takes the header parked for data message fm; peek only looks.
func (h *Host) unpark(fm *fastmsg.Message) (hdr *Msg) {
	hdr, h.parked[fm.From] = h.peek(fm), nil
	return hdr
}

func (h *Host) peek(fm *fastmsg.Message) *Msg {
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
	m := fm.Payload.(*Msg)
	m.CheckLive("receive")
	if tr := h.sys.Opt.Trace; tr.Enabled() {
		mp, _, home := h.describe(m)
		tr.RecordMsg(h.sys.Eng.Now(), trace.Handle, h.id, fm.From, home, uint16(m.Type), mp, 0)
	}
	if row := &rows[m.Type]; row.Front != nil {
		return row.Front(h, m, fm), row.Engine
	}
	return fastmsg.NoFront, rows[m.Type].Engine
}

func (h *Host) Serve(p *sim.Proc, fm *fastmsg.Message) (tail *fastmsg.Message) {
	m := fm.Payload.(*Msg)
	h.inEngine, h.late = p == nil, false
	tail = rows[m.Type].Handle(h, p, m, fm)
	h.inEngine = false
	if tail == fastmsg.Decline {
		h.checkDecline(m)
	}
	return tail
}

// send ships a header-sized protocol message to host `to` in a pooled
// envelope, recycled after the destination handler returns, and with it
// the ownership of the header.
func (h *Host) send(p *sim.Proc, to int, m *Msg) { h.flush(p, h.post(to, m)) }

// post is send up to the charge: it records the send and returns the
// posted envelope, for a handler's tail or flush. postSized gives the wire
// size of a header with variable-length extras (lrc's encoded diffs). From
// an engine-context row the record waits for the send's turn (Sending).
func (h *Host) post(to int, m *Msg) *fastmsg.Message {
	return h.postSized(to, m, h.Costs().HeaderSize)
}

func (h *Host) postSized(to int, m *Msg, size int) *fastmsg.Message {
	m.CheckLive("Send")
	fm := h.EP.AllocMessage()
	fm.Size, fm.Payload = size, m
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
		m := fm.Payload.(*Msg)
		mp, addr, home := h.describe(m)
		tr.RecordMsg(h.sys.Eng.Now(), trace.Send, h.id, fm.To, home, uint16(m.Type), mp, addr)
	}
}

// postData posts raw sharing-unit bytes (no header: FM delivers them
// directly into the destination's memory, the paper's zero-copy path),
// dataMarker their payload. The header is traced.
func (h *Host) postData(to int, data []byte) *fastmsg.Message {
	fm := h.EP.AllocMessage()
	fm.Size, fm.Data, fm.Payload = len(data), data, dataMarker
	h.EP.Post(to, fm)
	h.late = h.late || h.inEngine // for checkDecline; the bytes are not traced
	return fm
}

// flush is the rest of send for a posted envelope, if any: charge p and
// transmit. With p nil an engine-context row queues it, for the receive
// sequence to charge.
func (h *Host) flush(p *sim.Proc, fm *fastmsg.Message) {
	switch {
	case fm == nil:
	case p == nil && h.inEngine:
		h.EP.Queue(fm)
	default:
		h.EP.Finish(p, fm)
	}
}
