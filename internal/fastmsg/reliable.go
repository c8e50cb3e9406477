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
//     its processed floor so the sender can advance).
//   - Acks are cumulative and are sent when the destination's handler
//     COMPLETES, not when the frame arrives — so a crash that wipes the
//     receive queue loses only unacknowledged work, which the sender
//     still holds and retransmits.
//   - The sender retransmits everything outstanding (go-back-N) on a
//     per-link timer with exponential backoff between RTOMin and RTOMax.
//
// Crash model (fail-restart with durable memory): a crashed host keeps
// its memory, page protections, protocol state and session floors, but
// loses everything volatile in the transport — frames on the wire to
// it, its receive queue, its reorder buffers, and undelivered poll/sweep
// events. On crash each receive session's accept floor rolls back to
// its processed floor, so the peers' retransmissions re-deliver exactly
// the lost tail; a handler already mid-flight at the crash completes
// (message-granularity failure boundary) and its duplicate, if
// retransmitted, is recognized and dropped. On restart the host
// immediately flushes its own outbound sessions. That is all the
// recovery there is: no protocol above re-sends, stamps or deduplicates
// a request of its own.
//
// A host's link to itself keeps its session — sequence numbers, the send
// log, the ack at completion — so a crash that wipes a self-addressed
// message from the receive queue re-delivers it exactly once at the
// restart flush. Nothing else can lose it: it skips the faulty wire both
// ways (transmit, sendAck), and so its link arms no timer.
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
	hosts  []*relHost

	// Pooled calendar records and their once-bound callbacks, so arming a
	// retransmit timer or shipping an ack never allocates a closure.
	freeTR  []*timerRec
	freeAR  []*ackRec
	timerFn func(any) // r.timerFireAny, bound in InstallFaults
	ackFn   func(any) // r.ackArriveAny, bound in InstallFaults

	// Scratch for the per-frame codec self-check (see selfCheckFrame).
	frameBuf []byte
	frameTmp Frame

	seqScratch []uint64 // crash: a reorder buffer's keys, sorted
}

// timerRec is one armed retransmission timer on the engine calendar.
type timerRec struct {
	from, to int
	gen      uint64
}

// ackRec is one cumulative ack in flight on the wire.
type ackRec struct {
	to, from int
	cum      uint64
}

// relHost is one host's transport state.
type relHost struct {
	down bool
	send []sendSession // indexed by destination host
	recv []recvSession // indexed by source host

	// The message currently in the service thread's handler, if any.
	// A crash rolls the accept floor back underneath it; this record
	// keeps its retransmitted twin from being admitted a second time.
	inServiceFrom int
	inServiceSeq  uint64
}

// sendSession is the sender half of one directed link. Its contents are
// durable across the sender's crashes (the production analogue: a send
// log on stable storage); only transmission is suppressed while down.
type sendSession struct {
	nextSeq    uint64     // next sequence number to assign (sessions start at 1)
	unacked    []*Message // retransmission log, live from unaHead
	unaHead    int        // head index: popping with [1:] would shed capacity and realloc per ack
	rto        sim.Duration
	timerGen   uint64 // arms are numbered so superseded timers no-op
	timerArmed bool
}

// outstanding returns the link's unacknowledged frames in send order.
func (ss *sendSession) outstanding() []*Message { return ss.unacked[ss.unaHead:] }

// recvSession is the receiver half of one directed link. The floors are
// durable; the reorder buffer is volatile (lost at a crash).
type recvSession struct {
	nextAccept  uint64 // lowest sequence number not yet admitted for delivery
	nextProcess uint64 // lowest sequence number whose handler has not completed
	ooo         map[uint64]*Message
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
	r := &reliability{nw: nw, inj: inj, rtoMin: rtoMin, rtoMax: rtoMax}
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

// Down reports whether host h is currently crashed.
func (nw *Network) Down(h int) bool {
	return nw.rel != nil && nw.rel.hosts[h].down
}

// send assigns the next sequence number on the (ep, to) link, logs the
// frame for retransmission, and attempts a first transmission.
func (r *reliability) send(ep *Endpoint, to int, m *Message) {
	ss := &r.hosts[ep.id].send[to]
	m.Seq = ss.nextSeq
	ss.nextSeq++
	ss.unacked = append(ss.unacked, m)
	r.nw.retainMessage(m) // the send log's hold, dropped when an ack pops it
	if to == ep.id {
		ep.stats.Looped++
	} else {
		ep.stats.Sent++
		ep.stats.BytesSent += uint64(m.Size)
	}
	r.transmit(ep.id, to, m)
	if !ss.timerArmed {
		r.armTimer(ep.id, to, ss)
	}
}

// transmit puts one frame on the faulty wire: partition and crash checks,
// then the drop/duplicate/jitter draws. Used for first transmissions and
// retransmissions alike; a suppressed or lost frame stays in the send
// session and the timer covers it.
func (r *reliability) transmit(from, to int, m *Message) {
	if r.hosts[from].down {
		return // NIC is dead; the restart flush re-sends
	}
	if from == to {
		r.nw.retainMessage(m) // the admission's hold, as a wire arrival's
		r.arrive(r.nw.eps[to], m)
		return
	}
	r.selfCheckData(m)
	now := r.nw.eng.Now()
	if r.inj.Partitioned(from, to, now) {
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

// armTimer schedules the link's retransmission timer at its current RTO,
// on a pooled record so arming never allocates. A self link has none.
func (r *reliability) armTimer(from, to int, ss *sendSession) {
	if from == to {
		return
	}
	ss.timerArmed = true
	ss.timerGen++
	if ss.rto == 0 {
		ss.rto = r.rtoMin
	}
	var tr *timerRec
	if n := len(r.freeTR); n > 0 {
		tr = r.freeTR[n-1]
		r.freeTR = r.freeTR[:n-1]
	} else {
		tr = &timerRec{}
	}
	tr.from, tr.to, tr.gen = from, to, ss.timerGen
	r.nw.eng.AfterArg(ss.rto, r.timerFn, tr)
}

// timerFireAny is the calendar-side entry: unpack and recycle the record,
// then run the fire logic.
func (r *reliability) timerFireAny(a any) {
	tr := a.(*timerRec)
	from, to, gen := tr.from, tr.to, tr.gen
	*tr = timerRec{}
	r.freeTR = append(r.freeTR, tr)
	r.timerFire(from, to, gen)
}

// timerFire retransmits everything outstanding on the link (go-back-N)
// and re-arms with doubled backoff.
func (r *reliability) timerFire(from, to int, gen uint64) {
	ss := &r.hosts[from].send[to]
	if gen != ss.timerGen {
		return // superseded by an ack or a restart flush
	}
	ss.timerArmed = false
	if len(ss.outstanding()) == 0 {
		return
	}
	ep := r.nw.eps[from]
	for _, m := range ss.outstanding() {
		ep.stats.Retransmits++
		r.transmit(from, to, m)
	}
	ss.rto *= 2
	if ss.rto > r.rtoMax {
		ss.rto = r.rtoMax
	}
	r.armTimer(from, to, ss)
}

// arrive gates one frame off the wire: discard if this host is down,
// drop-and-re-ack duplicates, buffer early arrivals, and admit in-order
// frames (plus any buffered successors they release) to delivery. The
// arrival event's hold on the envelope either drops here (discards) or
// transfers to the reorder buffer / delivery pipeline (admissions).
func (r *reliability) arrive(ep *Endpoint, m *Message) {
	rh := r.hosts[ep.id]
	if rh.down {
		ep.stats.DroppedDown++
		r.nw.releaseMessage(m)
		return
	}
	rs := &rh.recv[m.From]
	if m.Seq < rs.nextAccept {
		// Already admitted once: a wire duplicate or a retransmission
		// that crossed our ack. Re-ack the processed floor so the
		// sender stops resending even if the original ack was lost.
		ep.stats.DupsDropped++
		from := m.From
		r.nw.releaseMessage(m) // may recycle and zero m; no field reads past here
		if rs.nextProcess > 1 {
			r.sendAck(ep.id, from, rs.nextProcess-1)
		}
		return
	}
	if m.Seq == rs.nextAccept && rh.inServiceFrom == m.From && rh.inServiceSeq == m.Seq {
		// A crash rolled the accept floor back under the handler that is
		// still processing this very sequence number; its retransmitted
		// twin must not be admitted again.
		ep.stats.DupsDropped++
		r.nw.releaseMessage(m)
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
	for {
		next, ok := rs.ooo[rs.nextAccept]
		if !ok {
			return
		}
		delete(rs.ooo, rs.nextAccept)
		rs.nextAccept++
		ep.deliver(next)
	}
}

// beginService marks m as the frame the service thread is processing.
func (r *reliability) beginService(ep *Endpoint, m *Message) {
	rh := r.hosts[ep.id]
	rh.inServiceFrom, rh.inServiceSeq = m.From, m.Seq
}

// complete advances the link's processed floor once the handler for m
// has returned, sends the cumulative ack, and detaches a pool envelope's
// Payload and Data. Called from the service thread; acks are charged no
// CPU (FM acks piggyback on the NIC).
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
		// mid-flight; it has now completed, so the floor moves past it.
		rs.nextAccept = rs.nextProcess
	}
	rh.inServiceFrom, rh.inServiceSeq = -1, 0
	r.sendAck(ep.id, m.From, m.Seq)
	if m.pooled {
		// The handler's now, maybe recycled: the shared envelope is a ghost.
		m.Payload, m.Data = nil, nil
	}
}

// sendAck ships a cumulative ack for the (to → from) link over the same
// faulty wire as any frame. A lost ack is healed by the next duplicate's
// re-ack, so acks need no sequencing of their own.
func (r *reliability) sendAck(from, to int, cum uint64) {
	if r.hosts[from].down {
		return
	}
	if from == to {
		r.ackArrive(to, from, cum)
		return
	}
	r.selfCheckAck(from, to, cum)
	now := r.nw.eng.Now()
	if r.inj.Partitioned(from, to, now) {
		return
	}
	base := r.nw.params.WireBase
	if !r.inj.DropFrame() {
		r.shipAck(to, from, cum, base+r.inj.ExtraDelay())
	}
	if r.inj.DupFrame() {
		r.shipAck(to, from, cum, base+r.inj.ExtraDelay())
	}
}

// shipAck schedules one ack arrival on a pooled record.
func (r *reliability) shipAck(to, from int, cum uint64, d sim.Duration) {
	var ae *ackRec
	if n := len(r.freeAR); n > 0 {
		ae = r.freeAR[n-1]
		r.freeAR = r.freeAR[:n-1]
	} else {
		ae = &ackRec{}
	}
	ae.to, ae.from, ae.cum = to, from, cum
	r.nw.eng.AfterArg(d, r.ackFn, ae)
}

// ackArriveAny is the calendar-side entry: unpack and recycle the
// record, then consume the ack.
func (r *reliability) ackArriveAny(a any) {
	ae := a.(*ackRec)
	at, from, cum := ae.to, ae.from, ae.cum
	*ae = ackRec{}
	r.freeAR = append(r.freeAR, ae)
	r.ackArrive(at, from, cum)
}

// ackArrive consumes a cumulative ack at the original sender: pop the
// acknowledged prefix, reset backoff on progress, and re-arm or cancel
// the timer.
func (r *reliability) ackArrive(at, from int, cum uint64) {
	rh := r.hosts[at]
	if rh.down {
		return
	}
	ss := &rh.send[from]
	progress := false
	for ss.unaHead < len(ss.unacked) && ss.unacked[ss.unaHead].Seq <= cum {
		m := ss.unacked[ss.unaHead]
		ss.unacked[ss.unaHead] = nil
		ss.unaHead++
		progress = true
		r.nw.releaseMessage(m) // the send log's hold
	}
	if ss.unaHead == len(ss.unacked) {
		ss.unacked = ss.unacked[:0]
		ss.unaHead = 0
	}
	if !progress {
		return
	}
	ss.timerGen++ // cancel the outstanding arm
	ss.timerArmed = false
	ss.rto = r.rtoMin
	if len(ss.outstanding()) > 0 {
		r.armTimer(at, from, ss)
	}
}

// crash takes host h's network stack down: volatile receive state is
// lost, and each receive session's accept floor rolls back to its
// processed floor so peers' retransmissions re-deliver the lost tail.
func (r *reliability) crash(h int) {
	rh := r.hosts[h]
	if rh.down {
		return
	}
	rh.down = true
	ep := r.nw.eps[h]
	// The receive queue and undelivered poll/sweep events are volatile.
	// Each wiped message loses its delivery-pipeline hold; the sender's
	// log still holds it (unacked), so retransmission re-delivers it.
	for {
		m, ok := ep.ready.TryGet()
		if !ok {
			break
		}
		r.nw.releaseMessage(m)
	}
	for _, pm := range ep.pending[ep.pendHead:] {
		// Unfired entries only: fired ones were already removed by fire().
		pm.fired = true // their scheduled fire events will no-op and recycle
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
				r.nw.releaseMessage(rs.ooo[seq])
			}
			r.seqScratch = seqs
		}
		rs.ooo = nil
		if rs.nextAccept > rs.nextProcess {
			rs.nextAccept = rs.nextProcess
		}
	}
}

// restart brings host h back: flush every outbound session immediately
// (peers may be blocked on frames we queued while down).
func (r *reliability) restart(h int) {
	rh := r.hosts[h]
	if !rh.down {
		return
	}
	rh.down = false
	ep := r.nw.eps[h]
	for to := range rh.send {
		ss := &rh.send[to]
		if len(ss.outstanding()) == 0 {
			continue
		}
		ss.timerGen++
		ss.timerArmed = false
		ss.rto = r.rtoMin
		for _, m := range ss.outstanding() {
			ep.stats.Retransmits++
			r.transmit(h, to, m)
		}
		r.armTimer(h, to, ss)
	}
}
