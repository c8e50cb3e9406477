// Package fastmsg simulates the messaging substrate of the Millipage paper:
// Illinois FastMessages (FM) on a switched Myrinet LAN, as driven by
// Millipage's DSM service threads on Windows NT.
//
// The model has three calibrated components, all in virtual time:
//
//   - per-message CPU cost at the sender and at the receiver (FM is a
//     user-level library: send/receive cost is endpoint processing, not
//     kernel crossings), plus a small wire latency. The constants are
//     fitted to Table 1 of the paper (32-byte header send/recv 12 µs,
//     0.5 KB 22 µs, 1 KB 34 µs, 4 KB 90 µs) and to the quoted 25 µs
//     small-message roundtrip;
//
//   - the polling discipline: FM only delivers when the receiver polls.
//     When the destination host is idle (its application threads are all
//     blocked) the low-priority poller thread picks messages up almost
//     immediately. When the host is computing, messages wait for the
//     sweeper thread, which wakes on a nominal 1 ms multimedia timer;
//
//   - the NT timer pathology reported in the paper (after Jones & Regehr):
//     timer events arrive either within tens of microseconds or after
//     several milliseconds (σ ≈ 955 µs for a 1 ms timer). The sweeper's
//     tick train is drawn from a bimodal gap distribution, which is what
//     produces the paper's ~500 µs average service-thread delay.
//
// Messages between a pair of endpoints are reliable and FIFO, as FM
// guarantees. When a faultnet plan is installed (see reliable.go) the
// raw wire becomes lossy instead, and a sequence-numbered ack/
// retransmission layer above it restores exactly-once FIFO delivery;
// the clean path is untouched — no sequencing, no acks, no allocation.
//
// A host's link to itself is not a wire: a message addressed to its own
// sender joins the sender's receive queue at the send instant. It pays
// the send and receive CPU like any message, but no wire latency and no
// poll or sweep, and no fault plan drops, duplicates, delays or
// partitions it (deliver).
package fastmsg

import (
	"fmt"

	"millipage/internal/sim"
)

// Params holds the calibrated cost model. All durations are virtual time.
type Params struct {
	// Sender-side CPU per message: SendBase + size*SendPerByte.
	SendBase    sim.Duration
	SendPerByte sim.Duration // duration per byte (fractional ns folded into base)

	// Wire/NIC latency between send completion and arrival at the
	// destination adapter: WireBase + size*WirePerByte.
	WireBase    sim.Duration
	WirePerByte sim.Duration

	// Receiver-side CPU per message, charged to the service thread before
	// the handler runs: RecvBase + size*RecvPerByte.
	RecvBase    sim.Duration
	RecvPerByte sim.Duration

	// PollIdle is how long an arrived message waits when the destination
	// host is idle: the poller's loop latency.
	PollIdle sim.Duration

	// Sweeper tick-gap distribution for busy hosts (the NT timer model):
	// with probability SweepShortProb the gap is uniform in
	// [SweepShortLo, SweepShortHi], otherwise uniform in
	// [SweepLongLo, SweepLongHi].
	SweepShortProb float64
	SweepShortLo   sim.Duration
	SweepShortHi   sim.Duration
	SweepLongLo    sim.Duration
	SweepLongHi    sim.Duration

	// PerfectTimers disables the sweeper pathology: busy hosts service
	// messages after exactly SweepShortLo. Used by ablation benchmarks
	// ("once the polling and timer-resolution problems are solved").
	PerfectTimers bool
}

// DefaultParams returns the model calibrated to the paper's testbed
// (300 MHz Pentium II, HPVM FM 1.0, Myrinet, NT 4.0 SP3).
func DefaultParams() Params {
	return Params{
		// Fit to Table 1: send/recv of 32 B = 12 µs ... 4 KB = 90 µs.
		SendBase:    4900 * sim.Nanosecond,
		SendPerByte: 9,
		WireBase:    1500 * sim.Nanosecond,
		WirePerByte: 1,
		RecvBase:    4900 * sim.Nanosecond,
		RecvPerByte: 9,

		PollIdle: 3 * sim.Microsecond,

		// Bimodal NT-timer model: "most of them appear either within
		// several tens of microseconds ... or take several milliseconds".
		SweepShortProb: 0.55,
		SweepShortLo:   20 * sim.Microsecond,
		SweepShortHi:   80 * sim.Microsecond,
		SweepLongLo:    500 * sim.Microsecond,
		SweepLongHi:    2600 * sim.Microsecond,
	}
}

// SendCPU returns the sender-side CPU cost for a message of size bytes.
func (pr Params) SendCPU(size int) sim.Duration {
	return pr.SendBase + sim.Duration(size)*pr.SendPerByte
}

// WireLatency returns the adapter-to-adapter latency for size bytes.
func (pr Params) WireLatency(size int) sim.Duration {
	return pr.WireBase + sim.Duration(size)*pr.WirePerByte
}

// RecvCPU returns the receiver-side CPU cost for size bytes.
func (pr Params) RecvCPU(size int) sim.Duration {
	return pr.RecvBase + sim.Duration(size)*pr.RecvPerByte
}

// OneWay returns the full uncontended cost of moving size bytes from a
// sender process to a receiver handler on an idle host — the quantity
// Table 1 reports as "message send/recv".
func (pr Params) OneWay(size int) sim.Duration {
	return pr.SendCPU(size) + pr.WireLatency(size) + pr.RecvCPU(size)
}

// Message is one FM message. Payload carries the protocol structure
// (opaque to this package); Data carries bulk bytes (minipage contents).
// Size is the wire size used by the cost model — protocols set it to the
// header size plus len(Data).
//
// Every envelope comes from AllocMessage. It is sent at most once and
// neither sender nor handler may retain it past the handler's return: a
// handler copies what it keeps. What it carries has one owner, with or
// without a fault plan: Payload and Data pass to the destination's
// handler, which runs exactly once per message and may recycle them.
// Under faults the send log, duplicates and retransmits still share the
// envelope, so completion detaches both and leaves a header-only ghost
// that arrive drops on Seq.
type Message struct {
	From    int
	To      int
	Size    int
	Payload any
	Data    []byte

	// Seq is the reliability layer's per-link sequence number; 0 on the
	// clean path (no faults installed), where the wire itself is FIFO.
	Seq uint64

	// refs counts the reliability layer's holders of this envelope: the
	// send session's retransmission log, every scheduled wire arrival
	// (first transmission, duplicates, retransmits), and the delivery
	// pipeline. Always 0 on the clean path, where the single in-flight
	// arrival is the only holder.
	refs int

	state uint8 // envelope lifecycle, for retention/double-free detection
}

// Envelope lifecycle states. An envelope walks allocated → sent →
// delivered → recycled; any other transition is a lifecycle bug (an
// envelope re-sent, retained past its handler's return, or not from
// AllocMessage) and panics at the spot instead of silently aliasing a
// recycled record.
const (
	msgRecycled uint8 = iota // the zero value: in the free pool, or never allocated; any use is a bug
	msgAllocated
	msgSent
	msgDelivered
)

// Handler processes one delivered message in the destination's service
// thread. It runs in process context: it may sleep (to charge protocol
// CPU costs) and send further messages: a Server with no front or tail.
type Handler func(p *sim.Proc, m *Message)

func (h Handler) Receive(*Message) (sim.Duration, bool)  { return NoFront, false }
func (h Handler) Serve(p *sim.Proc, m *Message) *Message { h(p, m); return nil }
func (h Handler) Sending(*Message)                       {}

// Server is what the receive sequence (Step) hands a message to once the
// receive CPU is charged. Receive returns the front, the charge its
// handler opens with (NoFront: none), and whether Serve runs first in
// engine context (p nil). Serve returns its tail, a posted message, or
// nil; in engine context it may return Decline instead, before any effect,
// and the thread serves the message. Sending is told of each send of the
// message in service (Queue, then the tail) as its charge begins.
type Server interface {
	Receive(m *Message) (front sim.Duration, engine bool)
	Serve(p *sim.Proc, m *Message) (tail *Message)
	Sending(m *Message)
}

const NoFront sim.Duration = -1

// Decline is what an engine-context Serve returns for a message it would
// wait on: the sequence switches to the thread, which serves it at the
// same event, where it would have started it anyway.
var Decline = new(Message)

// Network connects n endpoints over the simulated fabric.
type Network struct {
	eng    *sim.Engine
	params Params
	eps    []*Endpoint

	// free is the network-wide freelist of recycled envelopes: even
	// one-way flows recycle back to their sender. msgSlab holds the
	// envelopes not yet handed out.
	free    []*Message
	msgSlab []Message

	// freePM and pmSlab hold every endpoint's pending records: recycled,
	// and not yet handed out. A record's identity is invisible, so a burst
	// at one endpoint reuses what another's left.
	freePM []*pendingMsg
	pmSlab []pendingMsg

	// The calendar callbacks, bound once so that scheduling an arrival, a
	// poll or a sweep never allocates: arriveAny, fireAny, sweepAny.
	arriveFn, fireFn, sweepFn func(any)

	// rel is non-nil once a fault plan is installed: the sequence/ack/
	// retransmission machinery of reliable.go. Nil on the clean path.
	rel *reliability
}

// queueRoom is the room every endpoint's pending list and inbox start
// with, carved out of one allocation per network (New).
const queueRoom = 16

// New creates a network of n endpoints on eng. Each endpoint gets a
// daemon service-thread process that runs its handler.
func New(eng *sim.Engine, n int, params Params) *Network {
	nw := &Network{eng: eng, params: params}
	nw.arriveFn, nw.fireFn, nw.sweepFn = nw.arriveAny, nw.fireAny, nw.sweepAny
	eps, last := make([]Endpoint, n), make([]sim.Time, n*n)
	pending, inbox := make([]*pendingMsg, n*queueRoom), make([]*Message, n*queueRoom)
	nw.eps = make([]*Endpoint, n)
	for i := range eps {
		ep := &eps[i]
		lo, hi := i*queueRoom, (i+1)*queueRoom
		*ep = Endpoint{
			nw:          nw,
			eng:         eng,
			id:          i,
			ready:       sim.NewQueue[*Message](eng),
			lastDeliver: last[i*n : (i+1)*n : (i+1)*n],
			pending:     pending[lo:lo:hi],
		}
		ep.ready.Reserve(inbox[lo:lo:hi])
		ep.out = ep.outBuf[:0]
		nw.eps[i] = ep
		eng.SpawnDaemon(fmt.Sprintf("fm-server-%d", i), ep.serve)
	}
	return nw
}

// allocMessage reuses a recycled envelope from the network's freelist
// when one is available, or carves it from the slab, 64 envelopes an
// allocation: a run's envelopes in flight peak with its concurrency, and
// one allocation apiece made that peak a cost per run. Under an installed
// fault plan the retransmission buffer and duplicated wire arrivals share
// the envelope past the handler's return, so there the pool is driven by
// the reference count (releaseMessage) instead of the handler's completion.
func (ep *Endpoint) allocMessage() *Message {
	nw := ep.nw
	var m *Message
	if n := len(nw.free); n > 0 {
		m, nw.free = nw.free[n-1], nw.free[:n-1]
	} else {
		if len(nw.msgSlab) == 0 {
			nw.msgSlab = make([]Message, 64)
		}
		m, nw.msgSlab = &nw.msgSlab[0], nw.msgSlab[1:]
	}
	m.state = msgAllocated
	return m
}

// recycleMessage returns a delivered envelope to the network's freelist.
// A recycled envelope is zeroed, so recycling it twice (a handler
// retained it past return and a later path freed it again) trips the
// state check here rather than corrupting the pool with an aliased
// record.
func (ep *Endpoint) recycleMessage(m *Message) {
	if m.state != msgDelivered {
		panic("fastmsg: recycle of an envelope that is not a delivered one (double free?)")
	}
	*m = Message{}
	ep.nw.free = append(ep.nw.free, m)
}

// retainMessage records one more reliability-layer holder of m. Only
// meaningful under an installed fault plan; the clean path never shares
// an envelope.
func (nw *Network) retainMessage(m *Message) { m.refs++ }

// releaseMessage drops one reliability-layer hold on m and recycles the
// envelope once the last holder is gone. The last hold can only drop
// after the destination's handler completed (the send-log hold needs an
// ack whose processed floor covers it), so the envelope is always
// msgDelivered here.
func (nw *Network) releaseMessage(m *Message) {
	m.refs--
	if m.refs < 0 {
		panic("fastmsg: release of an envelope with no holders (double free?)")
	}
	if m.refs == 0 {
		nw.eps[m.To].recycleMessage(m)
	}
}

// Endpoint returns endpoint i.
func (nw *Network) Endpoint(i int) *Endpoint { return nw.eps[i] }

// Stats aggregates per-endpoint message accounting: Sent, Received and
// BytesSent count the wire, Looped the messages a host sent itself. The
// last five counters move only under an installed fault plan.
type Stats struct {
	Sent         uint64
	Received     uint64
	BytesSent    uint64
	Looped       uint64
	ServiceDelay sim.Duration // total arrival→handler-start delay

	Retransmits uint64 // frames re-sent by the reliability layer
	DupsDropped uint64 // duplicate frames discarded at the receiver
	OutOfOrder  uint64 // frames buffered waiting for a sequence gap
	DroppedDown uint64 // frames this host's crash discarded: wiped at it, or sent or arriving while down
	Partitioned uint64 // frames and acks this host sent into an active partition
}

// Endpoint is one host's attachment to the network.
//
// pending rewinds its head only when it drains, which — unlike the ready
// queue behind it, whose consumer can stay saturated (sim.Queue slides
// for that) — it always soon does: a record leaves one poll interval
// (PollIdle, or a sweep gap) after it arrived, and arrivals are requests
// and replies of threads with one fault outstanding each, so they pause
// for longer than that many times per fault round trip. The backing
// array peaks at 16-64 slots on the benchmark shapes.
type Endpoint struct {
	nw          *Network
	eng         *sim.Engine
	id          int
	handler     Server
	ready       *sim.Queue[*Message]
	busy        int // number of runnable application threads on this host
	lastDeliver []sim.Time
	sweepTick   sim.Time
	armed       sim.Time      // the latest tick a sweep event is scheduled at
	pending     []*pendingMsg // in-flight arrivals, live from pendHead
	pendHead    int           // head index: popping with [1:] would shed capacity and realloc per message
	stats       Stats

	// The state of the receive sequence (Step), which the endpoint itself
	// is the stepper of: the service thread, the message it received, its
	// handler's sends — those queued in engine context, then the tail —
	// of which the first sent are transmitted, and the next stage.
	server  *sim.Proc
	serving *Message
	out     []*Message // reused, on outBuf up to a fan-out of 8: a send allocates nothing
	outBuf  [8]*Message
	sent    int
	stage   uint8
}

const (
	recvTake     = iota // take a message or wait for one, charge RecvCPU
	recvFront           // ask the server, charge the front
	recvServe           // run the handler in engine context
	recvThread          // switch to the thread, which runs it
	recvSend            // charge the next send's SendCPU, or complete the message served
	recvTransmit        // transmit it
)

type pendingMsg struct {
	ep      *Endpoint
	m       *Message
	arrived sim.Time
	due     sim.Time // the sweeper tick that fires it; 0: a poll event of its own does
	fired   bool
	refs    int // fire events in the calendar still referencing this record
}

// Stats returns a copy of the endpoint's counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// SetHandler installs the message handler. It must be set before any
// message arrives.
func (ep *Endpoint) SetHandler(h Handler) { ep.handler = h }

func (ep *Endpoint) SetServer(s Server) { ep.handler = s }

// SetBusy adjusts the count of runnable application threads on this host.
// The transition to zero (host idle) releases any messages waiting for a
// sweeper tick to the fast poller path — the poller only gets CPU when the
// application does not need it.
func (ep *Endpoint) SetBusy(delta int) {
	was := ep.busy
	ep.busy += delta
	if ep.busy < 0 {
		panic("fastmsg: negative busy count")
	}
	if was > 0 && ep.busy == 0 {
		// Poller takes over: flush pending messages promptly.
		for _, pm := range ep.pending[ep.pendHead:] { // fire removes what it fires
			pm.refs++
			ep.eng.AfterArg(ep.nw.params.PollIdle, ep.nw.fireFn, pm)
		}
	}
}

// AllocMessage returns a zeroed envelope, reusing one whose handler has
// already completed when possible. See the Message doc for the
// single-send lifecycle this implies.
func (ep *Endpoint) AllocMessage() *Message { return ep.allocMessage() }

// Send transmits m to endpoint `to`. It charges the sending process the
// sender-side CPU cost (p may be nil for engine-context sends, which
// charge nothing). Delivery is reliable and FIFO per destination —
// natively on the clean path, via the reliability layer under faults.
func (ep *Endpoint) Send(p *sim.Proc, to int, m *Message) {
	ep.Post(to, m)
	ep.Finish(p, m)
}

// Finish is the rest of Send for a posted message: charge p, Transmit.
func (ep *Endpoint) Finish(p *sim.Proc, m *Message) {
	if p != nil {
		p.Sleep(ep.nw.params.SendCPU(m.Size))
	}
	ep.Transmit(m)
}

// Post is the first half of Send: it addresses m to endpoint `to`, walks
// the envelope's lifecycle to sent, and returns the sender-side CPU cost
// the caller has to charge before Transmit. Only a wait sequence that
// charges it with a SleepFor has reason to take Send apart (the cluster
// runtime's call sequence, and the receive sequence's tail).
func (ep *Endpoint) Post(to int, m *Message) sim.Duration {
	if m.Size <= 0 {
		m.Size = len(m.Data)
	}
	switch m.state {
	case msgRecycled:
		panic("fastmsg: Send of an envelope not from AllocMessage, or retained past its handler's return")
	case msgSent, msgDelivered:
		panic("fastmsg: Send of an envelope already in flight — AllocMessage envelopes are single-send")
	}
	m.state = msgSent
	m.From = ep.id
	m.To = to
	return ep.nw.params.SendCPU(m.Size)
}

// Queue is how an engine-context handler sends: it appends a posted message
// (nil: none) to the sends of the message in service, which Step charges
// and transmits in post order once the handler returns, its tail last.
func (ep *Endpoint) Queue(m *Message) {
	if m != nil {
		ep.out = append(ep.out, m)
	}
}

// Transmit is the second half of Send: it puts a posted message on the
// wire, or hands it to the reliability layer, or loops it back to this
// endpoint. It may run in engine context.
func (ep *Endpoint) Transmit(m *Message) {
	to := m.To
	if r := ep.nw.rel; r != nil {
		r.send(ep, to, m)
		return
	}
	if to == ep.id {
		ep.stats.Looped++
		ep.deliver(m)
		return
	}
	at := ep.eng.Now().Add(ep.nw.params.WireLatency(m.Size))
	if at <= ep.lastDeliver[to] {
		at = ep.lastDeliver[to] + 1 // preserve FIFO ordering per destination
	}
	ep.lastDeliver[to] = at
	ep.stats.Sent++
	ep.stats.BytesSent += uint64(m.Size)
	ep.eng.AtArg(at, ep.nw.arriveFn, m)
}

// arriveAny runs in engine context when a message reaches its
// destination's adapter. Under faults the reliability layer gates admission
// (dedup, reordering repair, down-host discard) before delivery.
func (nw *Network) arriveAny(a any) {
	m := a.(*Message)
	ep := nw.eps[m.To]
	if r := nw.rel; r != nil {
		r.arrive(ep, m)
		return
	}
	ep.deliver(m)
}

// deliver admits one message to the poll/sweep machinery that hands it
// to the service thread: on an idle host the poller's own event, on a busy
// one the sweeper's next tick, whose one event every arrival until then
// shares (sweepAny). A message from this host itself never waits for
// either: the sender is the poller, so it goes to the service thread now.
func (ep *Endpoint) deliver(m *Message) {
	if m.From == ep.id {
		ep.ready.Put(m)
		return
	}
	pm := ep.newPending(m, ep.eng.Now())
	ep.pending = append(ep.pending, pm)
	if ep.busy == 0 {
		pm.refs++
		ep.eng.AfterArg(ep.nw.params.PollIdle, ep.nw.fireFn, pm)
		return
	}
	pm.due = ep.eng.Now().Add(ep.nextSweepGap())
	if ep.armed != pm.due {
		ep.armed = pm.due
		ep.eng.AtArg(pm.due, ep.nw.sweepFn, ep)
	}
}

// newPending takes a pending record from the network's freelist, or carves
// it from the slab, 64 records an allocation.
func (ep *Endpoint) newPending(m *Message, at sim.Time) *pendingMsg {
	nw := ep.nw
	var pm *pendingMsg
	if n := len(nw.freePM); n > 0 {
		pm, nw.freePM = nw.freePM[n-1], nw.freePM[:n-1]
	} else {
		if len(nw.pmSlab) == 0 {
			nw.pmSlab = make([]pendingMsg, 64)
		}
		pm, nw.pmSlab = &nw.pmSlab[0], nw.pmSlab[1:]
	}
	pm.ep, pm.m, pm.arrived = ep, m, at
	return pm
}

// fireAny is the calendar-side entry: it drops the event's reference and
// recycles the record once the last scheduled fire has passed through
// (a record can be referenced by its poll event and by busy→idle
// flushes at once, so reuse must wait for all of them).
func (nw *Network) fireAny(a any) {
	pm := a.(*pendingMsg)
	pm.refs--
	pm.ep.fire(pm)
	pm.ep.release(pm)
}

// release recycles a fired record no calendar event references any more.
func (ep *Endpoint) release(pm *pendingMsg) {
	if pm.fired && pm.refs == 0 {
		*pm = pendingMsg{}
		ep.nw.freePM = append(ep.nw.freePM, pm)
	}
}

// sweepAny is a sweeper tick: it fires every record due at it, in arrival
// order. An idle flush (SetBusy) may have fired some of them already.
func (nw *Network) sweepAny(a any) {
	ep := a.(*Endpoint)
	now := ep.eng.Now()
	for i := ep.pendHead; i < len(ep.pending); {
		pm := ep.pending[i]
		if pm.fired || pm.due == 0 || pm.due > now {
			i++
			continue
		}
		ep.fire(pm) // removes pm: the next record is at i, or at the new head
		ep.release(pm)
		i = max(i, ep.pendHead)
	}
}

// fire hands a pending message to the service thread, exactly once.
func (ep *Endpoint) fire(pm *pendingMsg) {
	if pm.fired {
		return
	}
	if ep.nw.rel != nil {
		// Under faults the reliability layer admits frames in per-link
		// sequence order, but each admission schedules its own fire event,
		// and same-instant fire events may pop in either order (schedule
		// exploration exercises exactly this). Handing the service thread
		// whichever record pops first would break the per-link FIFO
		// guarantee that complete() asserts, so deliver the link's oldest
		// undelivered message instead — the unfired record with the
		// smallest sequence number, since earlier swaps may have scrambled
		// which record holds which message — and let the younger message
		// ride this record's remaining fire event.
		best := pm
		for i := ep.pendHead; i < len(ep.pending); i++ {
			q := ep.pending[i]
			if q == nil || q == pm || q.fired || q.m.From != pm.m.From {
				continue
			}
			if q.m.Seq < best.m.Seq {
				best = q
			}
		}
		if best != pm { // arrival times stay: only their sum is counted
			pm.m, best.m = best.m, pm.m
		}
	}
	pm.fired = true
	// Remove the fired entry itself, wherever it sits. The head is the
	// overwhelmingly common case (FIFO delivery), made O(1) here; the
	// scan below covers entries fired out of arrival order after a
	// busy/idle transition re-timed part of the list — dropping only a
	// fired prefix instead would strand such entries behind a
	// still-pending one, re-walked by every idle flush in SetBusy and
	// retained until the whole prefix clears.
	if ep.pendHead < len(ep.pending) && ep.pending[ep.pendHead] == pm {
		ep.pending[ep.pendHead] = nil
		ep.pendHead++
		if ep.pendHead == len(ep.pending) {
			ep.pending = ep.pending[:0]
			ep.pendHead = 0
		}
	} else {
		for i := ep.pendHead; i < len(ep.pending); i++ {
			if ep.pending[i] == pm {
				ep.pending = append(ep.pending[:i], ep.pending[i+1:]...)
				break
			}
		}
	}
	ep.stats.Received++
	ep.stats.ServiceDelay += ep.eng.Now().Sub(pm.arrived)
	ep.ready.Put(pm.m)
}

// nextSweepGap returns the wait until the busy host's sweeper next runs.
func (ep *Endpoint) nextSweepGap() sim.Duration {
	now := ep.eng.Now()
	if ep.sweepTick < now {
		ep.sweepTick = now
	}
	for ep.sweepTick <= now {
		ep.sweepTick = ep.sweepTick.Add(ep.sweepGap())
	}
	return ep.sweepTick.Sub(now)
}

// sweepGap draws one inter-tick gap from the NT timer model.
func (ep *Endpoint) sweepGap() sim.Duration {
	pr := ep.nw.params
	rng := ep.eng.Rand()
	if pr.PerfectTimers {
		return pr.SweepShortLo
	}
	uniform := func(lo, hi sim.Duration) sim.Duration {
		if hi <= lo {
			return lo
		}
		return lo + sim.Duration(rng.Int63n(int64(hi-lo)))
	}
	if rng.Float64() < pr.SweepShortProb {
		return uniform(pr.SweepShortLo, pr.SweepShortHi)
	}
	return uniform(pr.SweepLongLo, pr.SweepLongHi)
}

// serve is the endpoint's service-thread body: the receive sequence
// (Step), which returns only for a handler that runs in the thread.
func (ep *Endpoint) serve(p *sim.Proc) {
	ep.server = p
	for {
		p.Drive(ep)
		ep.Queue(ep.handler.Serve(p, ep.serving))
	}
}

// Step is the service thread's work as an engine-side wait sequence
// (sim.Stepper): take the oldest ready message — or enlist for one and
// block; the take happens at the wake event, so a crash draining the
// queue in between finds what it always found — mark it delivered (and,
// under faults, in service), charge the receive CPU and the front, run the
// handler in engine context or, if it has to wait or declines, the
// thread's, charge and transmit each send it queued and its tail, in
// order, then (under faults) acknowledge the completed sequence number and
// (clean path) recycle the envelope: after every send of the handler.
func (ep *Endpoint) Step() (sim.Action, sim.Duration) {
	for {
		switch ep.stage {
		case recvTake:
			m, ok := ep.ready.TryGet()
			if !ok {
				ep.ready.Enlist(ep.server)
				return sim.Block, 0
			}
			m.state = msgDelivered
			if r := ep.nw.rel; r != nil && m.Seq != 0 {
				r.beginService(ep, m)
			}
			ep.serving, ep.stage = m, recvFront
			return sim.SleepFor, ep.nw.params.RecvCPU(m.Size)
		case recvFront:
			if ep.handler == nil {
				panic(fmt.Sprintf("fastmsg: endpoint %d received %T with no handler", ep.id, ep.serving.Payload))
			}
			front, engine := ep.handler.Receive(ep.serving)
			ep.stage = recvServe
			if !engine {
				ep.stage = recvThread
			}
			if front != NoFront {
				return sim.SleepFor, front
			}
		case recvServe:
			ep.stage = recvThread
			if tail := ep.handler.Serve(nil, ep.serving); tail != Decline {
				ep.Queue(tail)
				ep.stage = recvSend
			}
		case recvThread:
			ep.stage = recvSend // where the thread's next Drive, after the handler, goes on
			return sim.Run, 0
		case recvSend:
			if ep.sent < len(ep.out) {
				m := ep.out[ep.sent]
				ep.handler.Sending(m)
				ep.stage = recvTransmit
				return sim.SleepFor, ep.nw.params.SendCPU(m.Size)
			}
			m := ep.serving
			ep.out, ep.sent, ep.serving, ep.stage = ep.out[:0], 0, nil, recvTake
			if r := ep.nw.rel; r != nil && m.Seq != 0 {
				r.complete(ep, m)
				// Under faults the send log and late wire duplicates may still
				// hold the envelope; drop only the delivery pipeline's hold.
				ep.nw.releaseMessage(m)
			} else {
				ep.recycleMessage(m)
			}
		case recvTransmit:
			ep.Transmit(ep.out[ep.sent])
			ep.sent, ep.stage = ep.sent+1, recvSend
		}
	}
}
