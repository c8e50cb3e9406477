package fastmsg

// The reliability layer: when a faultnet plan is installed, the raw wire
// drops, duplicates, delays and partitions frames, and hosts crash — so
// this file layers a per-directed-link sliding protocol over it that
// restores the FM guarantee the protocols were written against:
// exactly-once, per-link-FIFO delivery.
//
//   - Every frame carries a per-(sender,destination) sequence number.
//   - The receiver admits frames in sequence order, parking early
//     arrivals in a reorder buffer and discarding duplicates (re-acking
//     so the sender can advance).
//   - A remote frame is acked when its adapter ADMITS it (at wire
//     arrival, before the poller or sweeper runs). The ack carries two
//     cumulative floors: admitted, and processed (handlers completed).
//     The processed floor alone frees the sender's send log; it rides on
//     the next admission ack, so there is one ack per frame.
//   - The sender's per-link timer covers only frames not yet admitted,
//     so it runs at the wire's round trip: its first timeout is
//     min(RTOMin, 2·(WireLatency(largest frame) + Jitter) + 4·WireBase),
//     doubling up to RTOMax, and a timeout re-sends every unadmitted
//     frame (go-back-N). The link keeps a deadline and at most one live
//     calendar event, which re-schedules itself when the deadline moved.
//
// Crash model (fail-restart with durable memory): a crashed host keeps
// its memory, page protections, protocol state and session floors, but
// loses everything volatile in the transport — frames on the wire to
// it, its receive queue, its reorder buffers, and undelivered poll/sweep
// events. On crash each receive session's accept floor rolls back to
// its processed floor; a handler already mid-flight at the crash
// completes (message-granularity failure boundary) and its duplicate, if
// retransmitted, is recognized and dropped. The frames it had admitted
// but not serviced are no longer timed by their senders, so recovery
// starts at the receiver: the restarted host bumps its incarnation,
// which every ack it sends carries, and re-sends a resync ack with
// backoff to each peer whose admitted frames it lost, until they are
// admitted again; every other peer gets one ack saying it is back. A
// sender that sees a newer incarnation takes that ack's admitted floor
// and re-sends everything past it at once. The restarted host also
// flushes its own outbound sessions. That is all the recovery there is:
// no protocol above re-sends, stamps or deduplicates a request of its
// own.
//
// A host's link to itself keeps its session — sequence numbers, the send
// log — and its ack at completion, so a crash that wipes a
// self-addressed message from the receive queue re-delivers it exactly
// once at the restart flush. Nothing else can lose it: it skips the
// faulty wire both ways (transmit, sendAck), and so its link arms no
// timer and takes no part in incarnations.
//
// Everything here is fault-mode only: a Network without InstallFaults
// never touches this file, keeping the clean path allocation-free and
// bit-identical in virtual time.

import (
	"fmt"
	"slices"

	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// reliability is the per-network state of the layer.
type reliability struct {
	nw     *Network
	inj    *faultnet.Injector
	rtoMin sim.Duration
	rtoMax sim.Duration
	jitter sim.Duration // the plan's reorder delay bound
	big    int          // the largest frame put on the wire so far
	hosts  []*relHost

	// Pooled calendar records and their once-bound callbacks, so arming a
	// timer or shipping an ack never allocates a closure.
	freeTR  []*timerRec
	freeAR  []*ackRec
	timerFn func(any) // r.timerFireAny, bound in InstallFaults
	ackFn   func(any) // r.ackArriveAny, bound in InstallFaults

	seqScratch []uint64 // crash: a reorder buffer's keys, sorted
}

// timerRec is one timer event on the engine calendar: the sender from's
// retransmit timer for its link to `to`, or, with resync set, receiver
// from's resync chain towards peer `to`.
type timerRec struct {
	from, to int
	gen      uint64
	resync   bool
}

// ack is what one ack frame says about a directed link: the receiver's
// admitted and processed floors (the highest sequence number admitted,
// and completed, with every one below it), and its incarnation.
type ack struct {
	admitted, done, inc uint64
}

// ackRec is one ack in flight on the wire.
type ackRec struct {
	to, from int
	a        ack
}

// relHost is one host's transport state.
type relHost struct {
	down bool
	inc  uint64        // incarnation: bumped at every restart, carried by every ack
	send []sendSession // indexed by destination host
	recv []recvSession // indexed by source host

	// The message the service thread took last. A crash rolls the accept
	// floor back underneath one still in its handler; this record keeps
	// its retransmitted twin from being admitted a second time (once the
	// handler completes, the floor is past it).
	inServiceFrom int
	inServiceSeq  uint64
}

// sendSession is the sender half of one directed link. Its contents are
// durable across the sender's crashes (the production analogue: a send
// log on stable storage); only transmission is suppressed while down.
type sendSession struct {
	nextSeq  uint64     // next sequence number to assign (sessions start at 1)
	unacked  []*Message // retransmission log, live from unaHead
	unaHead  int        // head index: popping with [1:] would shed capacity and realloc per ack
	admitted uint64     // the receiver's admitted floor: the timer covers frames past it
	peerInc  uint64     // the receiver's incarnation, as its latest ack carried it

	rto      sim.Duration // the next timeout; 0: the first (timeout)
	deadline sim.Time     // when the timer is due; 0: disarmed
	timerAt  sim.Time     // when the link's calendar event fires; 0: none pending
	timerGen uint64       // numbers the live event: one an earlier deadline superseded no-ops
}

// outstanding returns the link's unacknowledged frames in send order.
func (ss *sendSession) outstanding() []*Message { return ss.unacked[ss.unaHead:] }

// unadmitted returns the outstanding frames past the receiver's admitted
// floor, the ones the timer covers. The log is contiguous in sequence.
func (ss *sendSession) unadmitted() []*Message {
	out := ss.outstanding()
	if len(out) > 0 && ss.admitted >= out[0].Seq {
		out = out[ss.admitted-out[0].Seq+1:]
	}
	return out
}

// recvSession is the receiver half of one directed link. The floors are
// durable; the reorder buffer is volatile (lost at a crash).
type recvSession struct {
	nextAccept  uint64 // lowest sequence number not yet admitted for delivery
	nextProcess uint64 // lowest sequence number whose handler has not completed
	ooo         map[uint64]*Message

	// lost is the accept floor a crash rolled back from: until nextAccept
	// is back at it, the restarted host re-sends its resync ack, every
	// resyncRTO, doubling, while resyncArmed.
	lost        uint64
	resyncRTO   sim.Duration
	resyncArmed bool
}

// InstallFaults arms the network with a fault injector: the wire becomes
// lossy per the injector's plan and the reliability layer switches on.
// It must be called before any traffic (cluster setup time), and the
// plan's crash schedule is placed on the engine calendar here.
func (nw *Network) InstallFaults(inj *faultnet.Injector) {
	if nw.rel != nil {
		panic("fastmsg: InstallFaults called twice")
	}
	for _, ep := range nw.eps {
		if ep.stats.Sent != 0 || ep.stats.Received != 0 {
			panic("fastmsg: InstallFaults after traffic")
		}
	}
	plan := inj.Plan()
	rtoMin, rtoMax := plan.RTOBounds()
	r := &reliability{nw: nw, inj: inj, rtoMin: rtoMin, rtoMax: rtoMax, jitter: plan.Jitter}
	r.timerFn = r.timerFireAny
	r.ackFn = r.ackArriveAny
	n := len(nw.eps)
	for i := 0; i < n; i++ {
		rh := &relHost{
			send:          make([]sendSession, n),
			recv:          make([]recvSession, n),
			inServiceFrom: -1,
		}
		for j := 0; j < n; j++ {
			rh.send[j].nextSeq = 1
			rh.recv[j].nextAccept = 1
			rh.recv[j].nextProcess = 1
		}
		r.hosts = append(r.hosts, rh)
	}
	nw.rel = r
	for _, c := range inj.Crashes() {
		h := c.Host
		nw.eng.At(c.At, func() { r.crash(h) })
		nw.eng.At(c.RestartAt, func() { r.restart(h) })
	}
}

// FaultsEnabled reports whether a fault plan is installed.
func (nw *Network) FaultsEnabled() bool { return nw.rel != nil }

// timeout is a timeout as a session keeps it: rto, or for 0 the first,
// a round trip of the largest frame sent so far and its ack, both at the
// jitter bound, with slack, capped at RTOMin.
func (r *reliability) timeout(rto sim.Duration) sim.Duration {
	if rto != 0 {
		return rto
	}
	pr := r.nw.params
	return min(r.rtoMin, 2*(pr.WireLatency(r.big)+r.jitter)+4*pr.WireBase)
}

// backoff doubles a timeout up to RTOMax.
func (r *reliability) backoff(rto sim.Duration) sim.Duration {
	return min(2*r.timeout(rto), r.rtoMax)
}

// send assigns the next sequence number on the (ep, to) link, logs the
// frame for retransmission, and attempts a first transmission.
func (r *reliability) send(ep *Endpoint, to int, m *Message) {
	ss := &r.hosts[ep.id].send[to]
	m.Seq = ss.nextSeq
	ss.nextSeq++
	if ss.unaHead > 0 && ss.unaHead >= len(ss.unacked)/2 {
		// The log seldom drains to empty (the processed floor rides on the
		// next ack), so slide its live tail down before it grows.
		n := copy(ss.unacked, ss.outstanding())
		clear(ss.unacked[n:])
		ss.unacked, ss.unaHead = ss.unacked[:n], 0
	}
	ss.unacked = append(ss.unacked, m)
	r.nw.retainMessage(m) // the send log's hold, dropped when an ack pops it
	if to == ep.id {
		ep.stats.Looped++
	} else {
		ep.stats.Sent++
		ep.stats.BytesSent += uint64(m.Size)
		r.big = max(r.big, m.Size)
	}
	r.transmit(ep.id, to, m)
	if ss.deadline == 0 {
		r.arm(ep.id, to, ss)
	}
}

// transmit puts one frame on the faulty wire: partition and crash checks,
// then the drop/duplicate/jitter draws. Used for first transmissions and
// retransmissions alike; a suppressed or lost frame stays in the send
// session and the timer covers it.
func (r *reliability) transmit(from, to int, m *Message) {
	if r.hosts[from].down {
		r.nw.eps[from].stats.DroppedDown++
		return // NIC is dead; the restart flush re-sends
	}
	if from == to {
		r.nw.retainMessage(m) // the admission's hold, as a wire arrival's
		r.arrive(r.nw.eps[to], m)
		return
	}
	now := r.nw.eng.Now()
	if r.inj.Partitioned(from, to, now) {
		r.nw.eps[from].stats.Partitioned++
		return
	}
	base := r.nw.params.WireLatency(m.Size)
	if !r.inj.DropFrame() {
		r.nw.retainMessage(m) // this arrival's hold, dropped or transferred in arrive
		r.nw.eng.AtArg(now.Add(base+r.inj.ExtraDelay()), r.nw.arriveFn, m)
	}
	if r.inj.DupFrame() {
		r.nw.retainMessage(m)
		r.nw.eng.AtArg(now.Add(base+r.inj.ExtraDelay()), r.nw.arriveFn, m)
	}
}

// arm sets the link's deadline at its current timeout from now, and puts
// an event on the calendar only if none is pending at or before it. A
// self link has no timer.
func (r *reliability) arm(from, to int, ss *sendSession) {
	if from == to {
		return
	}
	ss.deadline = r.nw.eng.Now().Add(r.timeout(ss.rto))
	if ss.timerAt == 0 || ss.timerAt > ss.deadline {
		ss.timerGen++
		ss.timerAt = ss.deadline
		r.schedule(from, to, ss.timerGen, false, ss.deadline)
	}
}

// schedule puts one timer event on the calendar, on a pooled record so
// arming never allocates.
func (r *reliability) schedule(from, to int, gen uint64, resync bool, at sim.Time) {
	var tr *timerRec
	if n := len(r.freeTR); n > 0 {
		tr = r.freeTR[n-1]
		r.freeTR = r.freeTR[:n-1]
	} else {
		tr = &timerRec{}
	}
	tr.from, tr.to, tr.gen, tr.resync = from, to, gen, resync
	r.nw.eng.AtArg(at, r.timerFn, tr)
}

// timerFireAny is the calendar-side entry: unpack and recycle the record,
// then run the fire logic.
func (r *reliability) timerFireAny(a any) {
	tr := a.(*timerRec)
	from, to, gen, resync := tr.from, tr.to, tr.gen, tr.resync
	*tr = timerRec{}
	r.freeTR = append(r.freeTR, tr)
	if resync {
		r.resyncFire(from, to)
	} else {
		r.timerFire(from, to, gen)
	}
}

// timerFire is the link's one calendar event: disarmed, it goes; short
// of a deadline that moved on, it re-schedules itself there; due, it
// re-sends every unadmitted frame (go-back-N: there is one, as a link is
// armed only over them and disarmed once an ack admits the last) and
// re-arms with doubled backoff.
func (r *reliability) timerFire(from, to int, gen uint64) {
	ss := &r.hosts[from].send[to]
	if gen != ss.timerGen {
		return // superseded by an earlier deadline's event
	}
	ss.timerAt = 0
	now := r.nw.eng.Now()
	switch {
	case ss.deadline == 0:
		return
	case ss.deadline > now:
		ss.timerAt = ss.deadline
		r.schedule(from, to, gen, false, ss.deadline)
		return
	}
	r.resend(from, to, ss)
	ss.rto = r.backoff(ss.rto)
	r.arm(from, to, ss)
}

// resend re-sends every unadmitted frame of the link, and reports
// whether there was one.
func (r *reliability) resend(from, to int, ss *sendSession) bool {
	pend := ss.unadmitted()
	ep := r.nw.eps[from]
	for _, m := range pend {
		ep.stats.Retransmits++
		r.transmit(from, to, m)
	}
	return len(pend) > 0
}

// arrive gates one frame off the wire: discard if this host is down,
// drop-and-re-ack duplicates, buffer early arrivals, and admit in-order
// frames (plus any buffered successors they release) to delivery, acking
// the admission on a remote link. The arrival event's hold on the
// envelope either drops here (discards) or transfers to the reorder
// buffer / delivery pipeline (admissions).
func (r *reliability) arrive(ep *Endpoint, m *Message) {
	rh := r.hosts[ep.id]
	if rh.down {
		ep.stats.DroppedDown++
		r.nw.releaseMessage(m)
		return
	}
	from := m.From
	rs := &rh.recv[from]
	// A frame admitted once (a wire duplicate, or a retransmission that
	// crossed our ack) is dropped and re-acked, so the sender stops
	// resending even if the original ack was lost. So is the twin of the
	// frame in service when a crash rolled the accept floor back under its
	// handler, but unacked: the handler has not finished it.
	admitted := m.Seq < rs.nextAccept
	if admitted || m.Seq == rs.nextAccept && rh.inServiceFrom == from && rh.inServiceSeq == m.Seq {
		ep.stats.DupsDropped++
		r.nw.releaseMessage(m) // may recycle and zero m; no field reads past here
		if admitted {
			r.ackLink(ep.id, from)
		}
		return
	}
	if m.Seq > rs.nextAccept {
		if rs.ooo == nil {
			rs.ooo = make(map[uint64]*Message)
		}
		if _, dup := rs.ooo[m.Seq]; dup {
			ep.stats.DupsDropped++
			r.nw.releaseMessage(m)
		} else {
			rs.ooo[m.Seq] = m
			ep.stats.OutOfOrder++
		}
		return
	}
	rs.nextAccept++
	ep.deliver(m)
	admitBuffered(ep, rs)
	if from != ep.id {
		r.ackLink(ep.id, from)
	}
}

// admitBuffered admits, in sequence, the buffered frames that follow the
// link's accept floor, moving it past each.
func admitBuffered(ep *Endpoint, rs *recvSession) {
	for m, ok := rs.ooo[rs.nextAccept]; ok; m, ok = rs.ooo[rs.nextAccept] {
		delete(rs.ooo, rs.nextAccept)
		rs.nextAccept++
		ep.deliver(m)
	}
}

// beginService marks m as the frame the service thread is processing.
func (r *reliability) beginService(ep *Endpoint, m *Message) {
	rh := r.hosts[ep.id]
	rh.inServiceFrom, rh.inServiceSeq = m.From, m.Seq
}

// complete advances the link's processed floor once the handler for m
// has returned, acks it on the self link (a remote link's next admission
// ack carries it), and detaches the envelope's Payload and Data.
// Called from the service thread; acks are charged no CPU (FM acks
// piggyback on the NIC).
func (r *reliability) complete(ep *Endpoint, m *Message) {
	rh := r.hosts[ep.id]
	rs := &rh.recv[m.From]
	if m.Seq != rs.nextProcess {
		panic(fmt.Sprintf("fastmsg: host %d completed seq %d from host %d, expected %d — per-link FIFO processing violated",
			ep.id, m.Seq, m.From, rs.nextProcess))
	}
	rs.nextProcess = m.Seq + 1
	if rs.nextAccept < rs.nextProcess {
		// A crash rolled the accept floor back while this handler was
		// mid-flight; now the floor moves past it and what queued behind.
		rs.nextAccept = rs.nextProcess
		admitBuffered(ep, rs)
	}
	if m.From == ep.id {
		r.ackLink(ep.id, ep.id)
	}
	// The handler's now, maybe recycled: the shared envelope is a ghost.
	m.Payload, m.Data = nil, nil
}

// ackLink acks the (to → from) link with receiver from's floors and
// incarnation.
func (r *reliability) ackLink(from, to int) {
	rh := r.hosts[from]
	rs := &rh.recv[to]
	r.sendAck(from, to, ack{admitted: rs.nextAccept - 1, done: rs.nextProcess - 1, inc: rh.inc})
}

// sendAck ships an ack over the same faulty wire as any frame. A lost
// ack is healed by the next duplicate's re-ack or by the next admission,
// so acks need no sequencing of their own. Only a self link acks from a
// host that is down (a handler completing across the crash), and
// ackArrive drops that ack as it drops any a down host is sent.
func (r *reliability) sendAck(from, to int, a ack) {
	if from == to {
		r.ackArrive(to, from, a)
		return
	}
	now := r.nw.eng.Now()
	if r.inj.Partitioned(from, to, now) {
		r.nw.eps[from].stats.Partitioned++
		return
	}
	base := r.nw.params.WireBase
	if !r.inj.DropFrame() {
		r.shipAck(to, from, a, base+r.inj.ExtraDelay())
	}
	if r.inj.DupFrame() {
		r.shipAck(to, from, a, base+r.inj.ExtraDelay())
	}
}

// shipAck schedules one ack arrival on a pooled record.
func (r *reliability) shipAck(to, from int, a ack, d sim.Duration) {
	var ae *ackRec
	if n := len(r.freeAR); n > 0 {
		ae = r.freeAR[n-1]
		r.freeAR = r.freeAR[:n-1]
	} else {
		ae = &ackRec{}
	}
	ae.to, ae.from, ae.a = to, from, a
	r.nw.eng.AfterArg(d, r.ackFn, ae)
}

// ackArriveAny is the calendar-side entry: unpack and recycle the
// record, then consume the ack.
func (r *reliability) ackArriveAny(a any) {
	ae := a.(*ackRec)
	at, from, ack := ae.to, ae.from, ae.a
	*ae = ackRec{}
	r.freeAR = append(r.freeAR, ae)
	r.ackArrive(at, from, ack)
}

// ackArrive consumes an ack at the original sender: pop the processed
// prefix off the send log, then move the admitted floor. An ack from a
// newer incarnation of the receiver sets the floor to what it admitted
// since its restart and re-sends every frame past it at once; one from
// an older incarnation moves only the processed floor. A floor that
// advances resets backoff and re-arms or disarms the timer.
func (r *reliability) ackArrive(at, from int, a ack) {
	rh := r.hosts[at]
	if rh.down {
		return // lost with the wire to a crashed host: its restart flush re-sends what it covered
	}
	ss := &rh.send[from]
	for ss.unaHead < len(ss.unacked) && ss.unacked[ss.unaHead].Seq <= a.done {
		m := ss.unacked[ss.unaHead]
		ss.unacked[ss.unaHead] = nil
		ss.unaHead++
		r.nw.releaseMessage(m) // the send log's hold
	}
	if ss.unaHead == len(ss.unacked) {
		ss.unacked = ss.unacked[:0]
		ss.unaHead = 0
	}
	if at == from || a.inc < ss.peerInc {
		return // the self link has no timer; an older incarnation's admissions died with it
	}
	restarted := a.inc > ss.peerInc
	if !restarted && a.admitted <= ss.admitted {
		return
	}
	ss.peerInc, ss.admitted, ss.rto = a.inc, a.admitted, 0
	if restarted {
		r.resend(at, from, ss) // what the receiver admitted past a.admitted died in its crash
	}
	if len(ss.unadmitted()) == 0 {
		ss.deadline = 0
	} else {
		r.arm(at, from, ss)
	}
}

// crash takes host h's network stack down: volatile receive state is
// lost, and each receive session's accept floor rolls back to its
// processed floor, remembering the floor it lost for the restart's
// resync.
func (r *reliability) crash(h int) {
	rh := r.hosts[h]
	if rh.down {
		return
	}
	rh.down = true
	ep := r.nw.eps[h]
	// The receive queue and undelivered poll/sweep events are volatile.
	// Each wiped message loses its delivery-pipeline hold; the sender's
	// log still holds it (unprocessed), and re-sends it once the restart's
	// resync ack reaches the sender.
	for {
		m, ok := ep.ready.TryGet()
		if !ok {
			break
		}
		ep.stats.DroppedDown++
		r.nw.releaseMessage(m)
	}
	for _, pm := range ep.pending[ep.pendHead:] {
		// Unfired entries only: fired ones were already removed by fire().
		pm.fired = true // their scheduled fire events will no-op and recycle
		ep.stats.DroppedDown++
		r.nw.releaseMessage(pm.m)
		ep.release(pm) // one that no event references recycles here
	}
	for i := range ep.pending {
		ep.pending[i] = nil
	}
	ep.pending = ep.pending[:0]
	ep.pendHead = 0
	for i := range rh.recv {
		rs := &rh.recv[i]
		if len(rs.ooo) > 0 {
			// Release the reorder buffer's holds in sequence order so the
			// pool's contents stay deterministic run to run.
			seqs := r.seqScratch[:0]
			for seq := range rs.ooo { //detlint:ok sorted below
				seqs = append(seqs, seq)
			}
			slices.Sort(seqs)
			for _, seq := range seqs {
				ep.stats.DroppedDown++
				r.nw.releaseMessage(rs.ooo[seq])
			}
			r.seqScratch = seqs
		}
		rs.ooo = nil
		if rs.nextAccept > rs.nextProcess {
			rs.lost = max(rs.lost, rs.nextAccept)
			rs.nextAccept = rs.nextProcess
		}
	}
}

// restart brings host h back under a new incarnation: flush every
// outbound session immediately (peers may be blocked on frames we queued
// while down), tell every peer we are back (the self link's ack, after
// the flush re-admitted its frames, frees only its log), and start a
// resync chain to each peer whose admitted frames the crash lost.
func (r *reliability) restart(h int) {
	rh := r.hosts[h]
	if !rh.down {
		return
	}
	rh.down = false
	rh.inc++
	for to := range rh.send {
		if ss := &rh.send[to]; r.resend(h, to, ss) {
			ss.rto = 0
			r.arm(h, to, ss)
		}
	}
	for from := range rh.recv {
		r.ackLink(h, from)
		rs := &rh.recv[from]
		rs.resyncRTO = 0
		if rs.lost > rs.nextAccept && !rs.resyncArmed {
			rs.resyncArmed = true
			r.schedule(h, from, 0, true, r.nw.eng.Now().Add(r.timeout(0)))
		}
	}
}

// resyncFire re-sends receiver h's ack to peer `to` while the frames its
// crash lost from that link are not all admitted again, backing off up
// to RTOMax; the chain ends there, or when h is down (its restart starts
// a new one).
func (r *reliability) resyncFire(h, to int) {
	rh := r.hosts[h]
	rs := &rh.recv[to]
	if rh.down || rs.nextAccept >= rs.lost {
		rs.resyncArmed = false
		return
	}
	r.ackLink(h, to)
	rs.resyncRTO = r.backoff(rs.resyncRTO)
	r.schedule(h, to, 0, true, r.nw.eng.Now().Add(rs.resyncRTO))
}
