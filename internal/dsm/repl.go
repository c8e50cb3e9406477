package dsm

import (
	"fmt"
	"sort"

	"millipage/internal/fastmsg"
	"millipage/internal/hostset"
	"millipage/internal/sim"
	"millipage/internal/viewsvc"
)

// This file is the replicated-management layer (Options.Replication): a
// primary/backup pair per directory shard, coordinated by a viewsvc
// instance on host 0 (the allocation authority, which the crash model
// already treats as immortal for allocation and synchronization).
//
// Shard k is the directory natively homed at host k. The shard's current
// primary serves it; before any directory *effect* escapes (a forward, a
// grant, an invalidate burst, a close), the primary mirrors the mutation
// to the view's backup and waits for the ack — mirror-before-effect. On
// the primary's death the view service promotes the synced backup, which
// replays its mirror: completed transactions are re-driven (they converge
// — see Redrive in msg.go) and the shard re-serves with no state lost.
// Requesters need no view awareness beyond routing: they send to the host
// they believe is primary, stale primaries forward, and the TID/Txn retry
// identity dedups across the handoff.
const (
	pingInterval = 300 * sim.Microsecond
	tickInterval = 500 * sim.Microsecond
	// deadAfter tolerates four lost heartbeats before declaring a host
	// dead. Heartbeats travel a dedicated out-of-band channel (see
	// startReplDaemons) that crashes and partitions cut but stochastic
	// frame loss does not, so this can stay tight: a real crash is
	// detected in ~1.5ms and the backup promotes on the next tick.
	deadAfter = 4 * pingInterval
	// hbLatency is the heartbeat channel's fixed one-way delay.
	hbLatency = 10 * sim.Microsecond
)

// mirKind discriminates mirror records.
type mirKind int

const (
	mirIntent mirKind = iota // txn admitted: entry busy, openMsg recorded
	mirClose                 // txn closed: final copyset/owner, done entry
	mirSeed                  // directory seed (DIR_INIT twin) for the shadow
	mirState                 // full shard snapshot (state transfer)
)

// mirrorRec is one replicated directory mutation (or a full snapshot).
// It travels by pointer and is echoed verbatim in the ack.
type mirrorRec struct {
	Kind  mirKind
	Shard int    // directory shard (native home host id)
	View  uint64 // primary's view number when sent
	Seq   uint64 // per-(shard,view) FIFO sequence, for ack matching
	ID    int    // minipage id (mirIntent/mirClose/mirSeed)

	// mirIntent: the admitted request (by value: the original keeps
	// mutating at the primary) plus the entry's pre-transaction state.
	Intent     pmsg
	PreCopyset hostset.Set
	PreOwner   int

	// mirClose: the entry's post-transaction state and the dedup record.
	Copyset hostset.Set
	Owner   int
	TID     int
	Txn     uint64

	// mirState: the full shard snapshot.
	State *xferState
}

// xferState is a full shard snapshot for a fresh backup. All slices are
// sorted (by id / TID) so the transfer is deterministic.
type xferEntry struct {
	ID      int
	Copyset hostset.Set
	Owner   int
	Busy    bool
	Intent  pmsg // valid when Busy: the open transaction's request
}

type doneRec struct {
	TID int
	Txn uint64
}

type xferState struct {
	Entries []xferEntry
	Done    []doneRec // completed-transaction high-water marks
}

// shardServe is the primary-side state for one shard this host serves.
type shardServe struct {
	shard    int
	num      uint64 // view number under which we serve
	mirrorTo int    // current backup, -1 for solo (effects release immediately)
	seq      uint64 // next mirror sequence

	// pending holds the effects gated on mirror acks in FIFO order;
	// pending[0] matches the next ack.
	pending []pendingMirror
}

// pendingMirror is one effect awaiting its mirror's ack: what
// manager.release runs then (m is nil for effClose).
type pendingMirror struct {
	seq  uint64
	kind effect
	e    *dirEntry
	m    *pmsg
}

// shardShadow is the backup-side mirror of a shard: enough to promote.
type shardShadow struct {
	shard   int
	num     uint64 // view number we believe for this shard
	entries map[int]*dirEntry
	intents map[int]pmsg // open transactions by minipage id
	done    map[int]uint64
}

// ReplStats counts replication-layer activity (test observability).
type ReplStats struct {
	MirrorsSent uint64
	Promotions  uint64
	Demotions   uint64
}

// replMgr is one host's replication layer: its view table, the shards it
// serves as primary, and the shadows it keeps as backup. Host 0's
// instance additionally embeds the view service.
type replMgr struct {
	mg *manager
	me int

	views   []viewsvc.View
	serving map[int]*shardServe
	shadows map[int]*shardShadow

	svc      *viewsvc.Service // non-nil on host 0 only
	xferSent map[int]uint64   // shard -> view num of last state transfer sent

	pushSeq int // manager-assigned TIDs for unstamped push requests

	// reArena slab-allocates replEntry records alongside the manager's
	// deArena.
	reArena []replEntry

	Stats ReplStats
}

// replEntry is the part of a directory entry only replicated management
// uses. openTID/openTxn/openMsg identify the open transaction so late or
// duplicate acks can be matched exactly; preCopyset/preOwner snapshot the
// entry at admission for the intent mirror and state transfers;
// invMask/pushMask track which hosts still owe a reply, so replies
// forwarded from a deposed primary cannot double-count.
type replEntry struct {
	openTID    int
	openTxn    uint64
	openMsg    pmsg
	preCopyset hostset.Set
	preOwner   int
	invMask    hostset.Set
	pushMask   hostset.Set
}

// newReplEntry carves a directory entry's replication state out of the
// slab arena.
func (rp *replMgr) newReplEntry() *replEntry {
	if len(rp.reArena) == 0 {
		rp.reArena = make([]replEntry, 256)
	}
	re := &rp.reArena[0]
	rp.reArena = rp.reArena[1:]
	return re
}

func newReplMgr(mg *manager) *replMgr {
	rp := &replMgr{
		mg: mg, me: mg.me,
		serving:  make(map[int]*shardServe),
		shadows:  make(map[int]*shardShadow),
		xferSent: make(map[int]uint64),
	}
	return rp
}

func (rp *replMgr) host() *Host { return rp.mg.host() }

// initRepl wires the replication layer into a freshly built System: one
// replMgr per host, the view service on host 0, and everyone primary of
// their native shard under the initial views.
func (s *System) initRepl() {
	hosts := s.Opt.Hosts
	s.repl = make([]*replMgr, hosts)
	for i := 0; i < hosts; i++ {
		rp := newReplMgr(s.mgrs[i])
		if i == managerHost {
			rp.svc = viewsvc.New(hosts, int64(deadAfter))
			rp.views = rp.svc.Views()
		} else {
			rp.views = viewsvc.New(hosts, int64(deadAfter)).Views()
		}
		for k, v := range rp.views {
			if v.Primary == i {
				rp.serving[k] = &shardServe{shard: k, num: v.Num, mirrorTo: v.Backup}
			}
			if v.Backup == i {
				rp.shadows[k] = newShadow(k, v.Num)
			}
		}
		s.repl[i] = rp
	}
}

func newShadow(shard int, num uint64) *shardShadow {
	return &shardShadow{
		shard:   shard,
		num:     num,
		entries: make(map[int]*dirEntry),
		intents: make(map[int]pmsg),
		done:    make(map[int]uint64),
	}
}

// hbLinkUp reports whether the out-of-band heartbeat channel from host h
// to host 0 is up at virtual time now: severed while either end is
// inside a crash window or while the two are partitioned, untouched by
// the data path's stochastic drop/dup/jitter. Both fault features are
// static windows in the plan, so this is deterministic.
func (s *System) hbLinkUp(h int, now sim.Time) bool {
	pl := s.Opt.Faults
	if !pl.Enabled() {
		return true
	}
	for _, c := range pl.Crashes {
		if now < c.At || now >= c.RestartAt {
			continue
		}
		if c.Host == h || c.Host == managerHost {
			return false
		}
	}
	ba, b0 := uint64(1)<<uint(h), uint64(1)<<uint(managerHost)
	for _, pt := range pl.Partitions {
		if now < pt.From || now >= pt.Until {
			continue
		}
		if (pt.A&ba != 0 && pt.B&b0 != 0) || (pt.A&b0 != 0 && pt.B&ba != 0) {
			return false
		}
	}
	return true
}

// startReplDaemons spawns the heartbeat daemons (hosts 1..n-1) and the
// view-service tick daemon (host 0). Daemons do not keep Run alive.
//
// Heartbeats deliberately bypass the reliable data transport: a failure
// detector sharing the go-back-N sessions conflates congestion with
// death — one dropped wire frame silences the ping stream for a full
// retransmission timeout (3ms minimum, exponentially backed off), so
// any usefully tight deadAfter flaps continuously under lossy
// schedules and the view churns forever. They are modeled instead as a
// dedicated management channel (the out-of-band UDP path real clusters
// use for liveness): crashes and partitions sever it, but it carries no
// payload and is not subject to the data wire's stochastic faults.
func (s *System) startReplDaemons() {
	rp0 := s.repl[managerHost]
	for i := 1; i < s.Opt.Hosts; i++ {
		me := i
		s.Eng.SpawnDaemon(fmt.Sprintf("repl-ping-%d", i), func(p *sim.Proc) {
			for {
				if s.hbLinkUp(me, p.Now()) {
					at := int64(p.Now()) + int64(hbLatency)
					s.Eng.After(hbLatency, func() {
						rp0.svc.Heartbeat(me, at)
					})
				}
				p.Sleep(pingInterval)
			}
		})
	}
	if s.Opt.Hosts < 2 {
		return
	}
	h0 := s.Host(managerHost)
	s.Eng.SpawnDaemon("repl-tick", func(p *sim.Proc) {
		for {
			p.Sleep(tickInterval)
			now := int64(p.Now())
			rp0.svc.Heartbeat(managerHost, now)
			if rp0.svc.Tick(now) {
				views := rp0.svc.Views()
				rp0.applyViews(p, views)
				for i := 1; i < s.Opt.Hosts; i++ {
					h0.sendNew(nil, i, pmsg{Type: mViewUpdate, Views: rp0.svc.Views()})
				}
			}
		}
	})
}

// primaryOf returns the host this replMgr believes currently serves the
// directory shard of minipage id.
func (rp *replMgr) primaryOf(id int) int {
	return rp.views[rp.mg.sys.homeOf(id)].Primary
}

// primaryFor is the host-side routing hook: the believed primary for
// minipage id, or the native home when replication is off.
func (h *Host) primaryFor(id int) int {
	if rp := h.sys.replAt(h.ID()); rp != nil {
		return rp.primaryOf(id)
	}
	return h.sys.homeOf(id)
}

// replAt returns host i's replication layer, nil when replication is off.
func (s *System) replAt(i int) *replMgr {
	if s.repl == nil {
		return nil
	}
	return s.repl[i]
}

// ---------------------------------------------------------------------
// Dispatch: the replicated front door for directory traffic.
// ---------------------------------------------------------------------

// dispatchDir routes one directory-bound message under replication.
// Serving shards dispatch locally; anything else is forwarded to the
// believed primary (dropped if that is ourselves with no serving state:
// the view will catch up and the requester's retry re-delivers). Like
// every handler it owns m: each branch forwards, turns around or
// recycles it.
func (rp *replMgr) dispatchDir(p *sim.Proc, m *pmsg) *fastmsg.Message {
	switch m.Type {
	case mMirror:
		rp.handleMirror(p, m)
		return nil
	case mPing, mViewUpdate, mMirrorAck, mMirrorNak, mStateXfer, mSyncAck, mDirInit:
		// Control traffic ends here: take what it carries, then recycle.
		typ, from, txn, info, rec, views := m.Type, m.From, m.Txn, m.Info, m.Mir, m.Views
		rp.host().recyclePM(m)
		switch typ {
		case mPing:
			rp.svc.Heartbeat(from, int64(p.Now()))
		case mViewUpdate:
			rp.applyViews(p, views)
		case mMirrorAck:
			return rp.handleMirrorAck(p, rec)
		case mMirrorNak:
			rp.handleMirrorNak(rec, txn)
		case mStateXfer:
			rp.handleStateXfer(p, rec)
		case mSyncAck:
			rp.svc.AckSync(rec.Shard, from, rec.View)
		case mDirInit:
			rp.mg.seed(p, info.ID, from)
		}
		return nil
	}

	shard := rp.mg.sys.homeOf(m.Info.ID)
	if _, ok := rp.serving[shard]; ok {
		return rp.mg.dispatch(p, m)
	}
	// Not serving: forward to the believed primary. If we believe that is
	// ourselves the view is stale in a way forwarding can't fix — drop,
	// the requester's retry will find the promoted primary.
	if to := rp.views[shard].Primary; to != rp.me {
		m.Requeued = false
		return rp.host().Post(to, m)
	}
	rp.host().recyclePM(m)
	return nil
}

// shadowSeed is manager.seed at a host that does not serve minipage id:
// the shard's backup shadows the entry. Neither serving nor shadowing, the
// seed is a stale one for a shard that moved on — the authority re-seeds
// the live pair — and is dropped.
func (rp *replMgr) shadowSeed(id, from int) {
	if sh, ok := rp.shadows[rp.mg.sys.homeOf(id)]; ok && sh.entries[id] == nil {
		sh.entries[id] = &dirEntry{copyset: hostset.One(from), owner: from}
	}
}

// seedTargets returns the hosts a fresh minipage homed at home is seeded
// at (-1: none): the home, or under replication its shard's current
// primary and backup per the authoritative view service — it runs only on
// host 0 — so neither a failover nor a lost seed can stall the minipage
// until restart.
func (s *System) seedTargets(home int) [2]int {
	rp := s.replAt(managerHost)
	if rp == nil {
		return [2]int{home, -1}
	}
	v := rp.svc.View(home)
	return [2]int{v.Primary, v.Backup}
}

// ---------------------------------------------------------------------
// Primary side: mirror-before-effect.
// ---------------------------------------------------------------------

// commitIntent is the second commit point: it admits request m on entry
// e — opens the transaction, records it, mirrors the admission — and
// releases the effect kind once the backup acks; at once when the shard is
// unreplicated or served solo.
func (mg *manager) commitIntent(p *sim.Proc, e *dirEntry, m *pmsg, kind effect) *fastmsg.Message {
	e.busy = true
	rp := mg.sys.replAt(mg.me)
	if rp == nil {
		return mg.release(p, kind, e, m)
	}
	if m.Type == mPushReq && m.Txn == 0 {
		// Pushes arrive unstamped (fire-and-forget, no waiting thread):
		// assign a manager-private negative TID so acks can be matched.
		rp.pushSeq++
		m.TID = -rp.pushSeq
		m.Txn = 1
	}
	re := e.repl
	re.openTID, re.openTxn = m.TID, m.Txn
	re.openMsg = *m
	re.preCopyset, re.preOwner = e.copyset, e.owner

	shard := mg.sys.homeOf(m.Info.ID)
	sv := rp.serving[shard]
	if sv == nil {
		panic(fmt.Sprintf("dsm: host %d admitted txn for shard %d it does not serve", mg.me, shard))
	}
	rec := &mirrorRec{
		Kind: mirIntent, Shard: shard, View: sv.num, ID: m.Info.ID,
		Intent: *m, PreCopyset: re.preCopyset, PreOwner: re.preOwner,
	}
	return rp.mirror(p, sv, rec, pendingMirror{kind: kind, e: e, m: m})
}

// commitClose is the third commit point: it closes the open transaction
// on e — mirrors the final entry state plus the dedup record, then (on
// ack) clears the open markers and runs closeTxn. handleAck already
// recorded done[tid] locally.
func (mg *manager) commitClose(p *sim.Proc, e *dirEntry, id int, tid int, txn uint64) *fastmsg.Message {
	rp := mg.sys.replAt(mg.me)
	if rp == nil {
		return mg.release(p, effClose, e, nil)
	}
	shard := mg.sys.homeOf(id)
	sv := rp.serving[shard]
	if sv == nil {
		// Demoted with the transaction open: the new primary re-drives it
		// from the mirror; nothing to close here.
		return nil
	}
	rec := &mirrorRec{
		Kind: mirClose, Shard: shard, View: sv.num, ID: id,
		Copyset: e.copyset, Owner: e.owner, TID: tid, Txn: txn,
	}
	return rp.mirror(p, sv, rec, pendingMirror{kind: effClose, e: e})
}

// mirror sends rec to the shard's backup and queues the effect behind the
// ack; with no backup the effect releases immediately. The mirror itself
// is no tail: the effect is queued after it is sent.
func (rp *replMgr) mirror(p *sim.Proc, sv *shardServe, rec *mirrorRec, eff pendingMirror) *fastmsg.Message {
	if sv.mirrorTo < 0 {
		return rp.mg.release(p, eff.kind, eff.e, eff.m)
	}
	sv.seq++
	rec.Seq, eff.seq = sv.seq, sv.seq
	rp.Stats.MirrorsSent++
	rp.host().sendNew(p, sv.mirrorTo, pmsg{Type: mMirror, From: rp.me, Mir: rec})
	sv.pending = append(sv.pending, eff)
	return nil
}

// handleMirrorAck releases the oldest pending effect. Acks for a stale
// view (a departed backup's) are dropped.
func (rp *replMgr) handleMirrorAck(p *sim.Proc, rec *mirrorRec) *fastmsg.Message {
	sv, ok := rp.serving[rec.Shard]
	if !ok || rec.View != sv.num || len(sv.pending) == 0 || sv.pending[0].seq != rec.Seq {
		return nil
	}
	next := sv.pending[0]
	sv.pending = sv.pending[1:]
	return rp.mg.release(p, next.kind, next.e, next.m)
}

// handleMirrorNak demotes this primary if the naker has seen a newer
// view (num, its believed number, rode in pmsg.Txn).
func (rp *replMgr) handleMirrorNak(rec *mirrorRec, num uint64) {
	if sv, ok := rp.serving[rec.Shard]; ok && num > sv.num {
		rp.demote(rec.Shard)
	}
}

// ---------------------------------------------------------------------
// Backup side: the shadow.
// ---------------------------------------------------------------------

// handleMirror applies one mirrored mutation to the shard's shadow, or
// Naks it when the sender's view is stale (our believed number rides in
// the nak's pmsg.Txn). Either way the mirror header turns around as the
// answer.
func (rp *replMgr) handleMirror(p *sim.Proc, m *pmsg) {
	rec, primary := m.Mir, m.From
	shard := rec.Shard
	if _, srv := rp.serving[shard]; srv || rec.View < rp.views[shard].Num {
		*m = pmsg{Type: mMirrorNak, From: rp.me, Txn: rp.views[shard].Num, Mir: rec}
		rp.host().Send(p, primary, m)
		return
	}
	sh := rp.shadows[shard]
	if sh == nil || sh.num < rec.View {
		if sh == nil {
			sh = newShadow(shard, rec.View)
			rp.shadows[shard] = sh
		}
		sh.num = rec.View
	}
	switch rec.Kind {
	case mirIntent:
		e := sh.entries[rec.ID]
		if e == nil {
			e = &dirEntry{}
			sh.entries[rec.ID] = e
		}
		e.copyset, e.owner = rec.PreCopyset, rec.PreOwner
		e.busy = true
		sh.intents[rec.ID] = rec.Intent
	case mirClose:
		e := sh.entries[rec.ID]
		if e == nil {
			e = &dirEntry{}
			sh.entries[rec.ID] = e
		}
		e.copyset, e.owner = rec.Copyset, rec.Owner
		e.busy = false
		delete(sh.intents, rec.ID)
		if rec.Txn > sh.done[rec.TID] {
			sh.done[rec.TID] = rec.Txn
		}
	}
	*m = pmsg{Type: mMirrorAck, From: rp.me, Mir: rec}
	rp.host().Send(p, primary, m)
}

// handleStateXfer installs a full shard snapshot as this host's shadow
// and acks the sync to the view service.
func (rp *replMgr) handleStateXfer(p *sim.Proc, rec *mirrorRec) {
	shard := rec.Shard
	if rec.View < rp.views[shard].Num {
		return // stale transfer from a deposed primary
	}
	if _, srv := rp.serving[shard]; srv {
		if rec.View <= rp.views[shard].Num {
			return
		}
		// A newer primary exists: we were deposed without hearing it.
		rp.demote(shard)
	}
	sh := newShadow(shard, rec.View)
	for _, xe := range rec.State.Entries {
		e := &dirEntry{copyset: xe.Copyset, owner: xe.Owner, busy: xe.Busy}
		sh.entries[xe.ID] = e
		if xe.Busy {
			sh.intents[xe.ID] = xe.Intent
		}
	}
	for _, d := range rec.State.Done {
		sh.done[d.TID] = d.Txn
	}
	rp.shadows[shard] = sh
	rp.host().sendNew(p, managerHost, pmsg{Type: mSyncAck, From: rp.me, Mir: &mirrorRec{Shard: shard, View: rec.View}})
}

// ---------------------------------------------------------------------
// View changes: promotion, demotion, backup churn.
// ---------------------------------------------------------------------

// applyViews installs a published view table, promoting, demoting and
// re-targeting mirrors as needed. Stale per-shard entries (older numbers
// than we already believe) are skipped.
func (rp *replMgr) applyViews(p *sim.Proc, views []viewsvc.View) {
	for k := 0; k < len(views); k++ {
		nv := views[k]
		if nv.Num < rp.views[k].Num {
			continue
		}
		old := rp.views[k]
		rp.views[k] = nv
		sv, serving := rp.serving[k]

		switch {
		case nv.Primary == rp.me && !serving:
			rp.promote(p, k, nv)
		case nv.Primary != rp.me && serving:
			rp.demote(k)
		case serving && nv.Num > old.Num:
			// Same primary, new view: the backup changed (died, or a fresh
			// one was assigned). Retarget and re-sync.
			sv.num = nv.Num
			rp.retargetBackup(p, k, sv, nv)
		}
	}
}

// retargetBackup points the shard's mirror stream at the new view's
// backup: state-transfer first (so the snapshot precedes incremental
// mirrors in FIFO order), then release effects that were gated on the
// departed backup's acks.
func (rp *replMgr) retargetBackup(p *sim.Proc, k int, sv *shardServe, nv viewsvc.View) {
	sv.mirrorTo = nv.Backup
	if nv.HasBackup() && !nv.Synced && rp.xferSent[k] < nv.Num {
		rp.xferSent[k] = nv.Num
		rp.sendXfer(p, k, sv, nv.Backup)
	}
	rp.flushPending(p, sv)
}

// flushPending releases every effect still gated on a departed backup.
// The snapshot (if one was just sent) captured the pre-effect state;
// re-driving those transactions after a later promotion converges.
func (rp *replMgr) flushPending(p *sim.Proc, sv *shardServe) {
	for len(sv.pending) > 0 {
		next := sv.pending[0]
		sv.pending = sv.pending[1:]
		rp.host().Flush(p, rp.mg.release(p, next.kind, next.e, next.m))
	}
}

// sendXfer snapshots the shard and ships it to the fresh backup. Busy
// entries travel as their pre-transaction state plus the open request —
// exactly what the incremental intent mirror would have carried.
func (rp *replMgr) sendXfer(p *sim.Proc, k int, sv *shardServe, to int) {
	mg := rp.mg
	st := &xferState{}
	for id := 0; id < len(mg.dir); id++ {
		e := mg.dir[id]
		if e == nil || mg.sys.homeOf(id) != k {
			continue
		}
		xe := xferEntry{ID: id, Copyset: e.copyset, Owner: e.owner, Busy: e.busy}
		if e.busy {
			xe.Copyset, xe.Owner = e.repl.preCopyset, e.repl.preOwner
			xe.Intent = e.repl.openMsg
		}
		st.Entries = append(st.Entries, xe)
	}
	// Ship only completed transactions (done), never the inflight
	// admission markers: an inflight-only TID may belong to a request
	// that was merely queued here — the queue is not mirrored, its
	// effects never ran, and the requester's retry must be served fresh
	// at the successor, not dropped as a duplicate. Open transactions
	// (admitted, effects possibly escaped) travel as busy entries with
	// their intent and are re-driven instead.
	tids := make([]int, 0, len(mg.done))
	for tid := range mg.done { //detlint:ok keys are sorted before use
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		st.Done = append(st.Done, doneRec{TID: tid, Txn: mg.done[tid]})
	}
	rp.host().sendNew(p, to, pmsg{Type: mStateXfer, From: rp.me,
		Mir: &mirrorRec{Kind: mirState, Shard: k, View: sv.num, State: st}})
}

// promote turns this host's shadow of shard k into live serving state:
// install the entries, merge the dedup records, and re-drive every open
// transaction from its mirrored intent.
func (rp *replMgr) promote(p *sim.Proc, k int, nv viewsvc.View) {
	mg := rp.mg
	sh := rp.shadows[k]
	if sh == nil {
		// Promoted with no shadow: only possible for our native shard in
		// view 1 (initial state) — serve empty.
		sh = newShadow(k, nv.Num)
	}
	delete(rp.shadows, k)
	rp.Stats.Promotions++

	sv := &shardServe{shard: k, num: nv.Num, mirrorTo: nv.Backup}
	rp.serving[k] = sv

	ids := make([]int, 0, len(sh.entries))
	for id := range sh.entries { //detlint:ok keys are sorted before use
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e := sh.entries[id]
		ne := mg.newEntry(e.copyset, e.owner)
		mg.setEntry(id, ne)
	}
	// Replay completed transactions into the dedup table so a
	// post-failover duplicate of a finished request is dropped, never
	// redone. Inflight markers are deliberately NOT replayed: a TID the
	// old primary had only queued must retry fresh here (see sendXfer);
	// re-driven open intents re-mark inflight through dropDup below.
	for tid, txn := range sh.done { //detlint:ok max-merge into a map is order-independent
		raise(&mg.done, tid, txn)
	}

	if nv.HasBackup() && !nv.Synced && rp.xferSent[k] < nv.Num {
		rp.xferSent[k] = nv.Num
		rp.sendXfer(p, k, sv, nv.Backup)
	}

	// Re-drive open transactions in id order. Redrive bypasses the done
	// check: an intent whose close mirror was lost may have completed at
	// the old primary — re-driving converges, the requester's guards drop
	// the duplicate reply, and its re-ack closes the transaction.
	open := make([]int, 0, len(sh.intents))
	for id := range sh.intents { //detlint:ok keys are sorted before use
		open = append(open, id)
	}
	sort.Ints(open)
	for _, id := range open {
		req := mg.host().allocPM()
		*req = sh.intents[id]
		req.Requeued = false
		req.Redrive = true
		mg.host().Flush(p, mg.dispatch(p, req))
	}
}

// demote drops this host's serving state for shard k: a newer primary
// exists, so pending effects must never release here. In-flight
// transactions are re-driven by the successor from its mirror; the local
// directory entries stay (stale but unreachable — dispatchDir forwards).
func (rp *replMgr) demote(k int) {
	if _, ok := rp.serving[k]; !ok {
		return
	}
	delete(rp.serving, k)
	rp.Stats.Demotions++
}
