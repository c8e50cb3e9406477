package dsm

import (
	"fmt"

	"millipage/internal/cluster"
	"millipage/internal/core"
	"millipage/internal/viewsvc"
)

// managerHost is the elected manager process (Section 3.3: "one of the
// processes is elected as the manager"), which is also the kernel's
// allocation and synchronization coordinator.
const managerHost = cluster.Coordinator

// mtype enumerates the protocol message types of Figure 3, plus the push
// updates the paper describes in prose. Allocation and synchronization
// traffic is the kernel's (cluster.SvcMsg).
type mtype int

const (
	mReadReq   mtype = iota // requester -> manager, translated at the requester
	mWriteReq               // requester -> manager
	mReadFwd                // manager -> replica, carries translation info
	mWriteFwd               // manager -> chosen owner
	mReadReply              // owner -> requester header; an mData message follows
	mWriteReply
	mUpgradeGrant // manager -> requester that already holds the bytes
	mData         // bulk minipage contents, received directly into the privileged view
	mInvalidateReq
	mInvalidateReply
	mAck // faulting thread's transaction-closing ack to the manager

	mPushReq   // app thread asks the manager to replicate a minipage everywhere
	mPushOrder // manager tells the owner to push
	mPushData  // header for pushed contents (mData follows)
	mPushAck

	mDirInit // allocation authority -> home: seed the directory shard entry

	// Replicated-management traffic (Options.Replication).
	mPing       // host -> view service (host 0): liveness heartbeat
	mViewUpdate // view service -> all hosts: the published view table
	mMirror     // shard primary -> backup: one mirrored directory mutation
	mMirrorAck  // backup -> primary: mirror applied, release the effect
	mMirrorNak  // backup -> primary: mirror refused (newer view); demote
	mStateXfer  // primary -> fresh backup: full shard state snapshot
	mSyncAck    // fresh backup -> view service: state transfer installed
)

func (m mtype) String() string {
	if m >= 0 && int(m) < len(table.Rows) {
		return table.Rows[m].Name
	}
	return fmt.Sprintf("mtype(%d)", int(m))
}

func (m *pmsg) Table() (cluster.Table, int) { return table, int(m.Type) }

// dataMarker is the shared payload of every bulk mData message: the
// header that matters was sent separately, so data messages all carry
// the same immutable marker instead of allocating a header apiece.
var dataMarker = &pmsg{Type: mData}

// pmsg is the protocol header. On the wire it is Costs.HeaderSize bytes
// (32 in the paper's implementation: type, requester, faulting address,
// and reserved translation-info space — Section 3.3, where the manager
// fills it in; here the requester does, Host.route). The FW pointer models
// the requester-local event handle that rides in the header; only the
// requester dereferences it.
type pmsg struct {
	cluster.PoolState // recycled mark under -tags invariants; empty otherwise

	Type mtype
	From int    // original requester host
	Addr uint64 // faulting address

	Info core.Info // translation info, filled in at the requester (reserved header space)

	Write    bool // for mAck: closing a write transaction
	Prefetch bool // request was issued by a prefetch: no thread is waiting
	Requeued bool // dispatched again from a directory queue (stats count it once)

	// Redrive marks a request re-dispatched from a promoted backup's
	// mirror (Options.Replication). It bypasses the done-side dedup
	// check: a re-driven transaction whose original completed converges
	// to the same directory state, and the requester's reply guards plus
	// its duplicate re-ack close it. Never set off the replicated path.
	Redrive bool

	// Retry identity, stamped only under fault injection (zero on the
	// clean path). TID is the requesting thread's global id and Txn its
	// per-thread transaction number: together they let the home recognize
	// and drop duplicate requests created by retry timers and crash
	// recovery, and let the requester discard replies to an abandoned
	// transaction. They ride the forward chain untouched.
	TID int
	Txn uint64

	FW *cluster.Wait // requester-local rendezvous (event + reply landing zone)

	// Replicated-management payloads (nil/empty off the replicated path).
	Mir   *mirrorRec     // mMirror / mMirrorAck / mMirrorNak / mStateXfer / mSyncAck
	Views []viewsvc.View // mViewUpdate: the full published view table
}
