package dsm

import (
	"fmt"

	"millipage/internal/core"
)

// mtype enumerates the protocol message types of Figure 3, plus the push
// updates the paper describes in prose and lrc-mw's diff flush; lrc-mw's
// fetch is a READ_REQUEST its home serves itself. Allocation and
// synchronization traffic is the coordinator's (SvcMsg).
type mtype int

const (
	mReadReq   mtype = iota // requester -> manager, translated at the requester
	mWriteReq               // requester -> manager
	mReadFwd                // manager -> replica, carries translation info
	mWriteFwd               // manager -> chosen owner
	mReadReply              // owner -> requester header; an mData message follows
	mWriteReply
	mUpgradeGrant    // manager -> requester that already holds the bytes
	mData            // bulk minipage contents, received directly into the privileged view
	mInvalidateReq   // manager -> replica, sent before a write's forward or grant
	mInvalidateReply // replica -> writer, which counts them
	mAck             // faulting thread's transaction-closing ack to the manager

	mPushReq   // app thread asks the manager to replicate a minipage everywhere
	mPushOrder // manager tells the owner to push
	mPushData  // header for pushed contents (mData follows)
	mPushAck

	mDiffFlush // lrc-mw's (mw.go): releaser -> home, carries the diff and its interval
)

func (m mtype) String() string {
	if m >= 0 && int(m) < len(table.Rows) {
		return table.Rows[m].Name
	}
	return fmt.Sprintf("mtype(%d)", int(m))
}

func (m *pmsg) Table() (Table, int) { return table, int(m.Type) }

// dataMarker is the shared payload of every bulk mData message: the
// header that matters was sent separately, so data messages all carry
// the same immutable marker instead of allocating a header apiece.
var dataMarker = &pmsg{Type: mData}

// pmsg is the protocol header. On the wire it is Costs.HeaderSize bytes
// (32 in the paper's implementation: type, requester, faulting address,
// and reserved translation-info space — Section 3.3, where the manager
// fills it in; here the requester does, Host.route). The Req pointer models
// the requester-local event handle that rides in the header; only the
// requester dereferences it.
type pmsg struct {
	PoolState  // recycled mark under -tags invariants; empty otherwise
	Link[pmsg] // its place in a directory entry's queue

	Type mtype
	From int    // original requester host
	Addr uint64 // faulting address; the minipage's base in lrc-mw's headers

	Info core.Info // translation info, filled in at the requester (reserved header space)

	Prefetch bool     // request was issued by a prefetch: no thread is waiting
	Excl     bool     // a read under a lock its host has written under: served exclusive if it can be (admit)
	Requeued bool     // queued at the directory or parked by fetch, to be served again (stats count it once)
	Invals   int32    // a write's forward or grant: invalidations the home sent; -1 on each reply to one
	Epoch    uint32   // a home-bound message's: the barrier epoch its sender routed it in (dir)
	Diff     []byte   // encoded run-length diff (mDiffFlush), owned by the message
	Seq      uint64   // the interval of mDiffFlush's diff
	Need     []mwNeed // lrc-mw's read: the diffs its home must have applied first

	Req *request // requester-local record: rendezvous (event + reply landing zone) and reply count
}
