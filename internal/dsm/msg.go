package dsm

import (
	"fmt"

	"millipage/internal/core"
)

// mtype enumerates the message types: the protocol messages of Figure 3,
// plus the push updates the paper describes in prose and lrc-mw's diff
// flush (lrc-mw's fetch is a READ_REQUEST its home serves itself), then
// the coordinator's allocation and synchronization services (service.go).
// A type is its trace op code.
type mtype int

const (
	mReadReq   mtype = iota // requester -> manager, translated at the requester
	mWriteReq               // requester -> manager
	mReadFwd                // manager -> replica, carries translation info
	mWriteFwd               // manager -> chosen owner
	mReadReply              // owner -> requester header; an mData message follows, carrying it
	mWriteReply
	mUpgradeGrant    // manager -> requester that already holds the bytes
	mData            // bulk minipage contents, received directly into the privileged view; the row, never a header's type
	mInvalidateReq   // manager -> replica, sent before a write's forward or grant
	mInvalidateReply // replica -> writer, which counts them
	mAck             // faulting thread's transaction-closing ack to the manager

	mPushReq   // app thread asks the manager to replicate a minipage everywhere
	mPushOrder // manager tells the owner to push
	mPushData  // header for pushed contents (mData follows)
	mPushAck

	mDiffFlush // lrc-mw's (mw.go): releaser -> home, carries the diff and its interval

	mAllocReq // the coordinator's services: their headers concern no sharing unit
	mAllocReply
	mBarrierArrive
	mBarrierRelease
	mLockReq
	mLockGrant
	mUnlock
)

func (m mtype) String() string {
	if m >= 0 && int(m) < len(rows) {
		return rows[m].Name
	}
	return fmt.Sprintf("mtype(%d)", int(m))
}

// Msg is the header of every message a Host sends, pooled per cluster. On
// the wire it is Costs.HeaderSize bytes (32 in the paper's implementation:
// type, requester, faulting address, and reserved translation-info space —
// Section 3.3, where the manager fills it in; here the requester does,
// Host.route), plus 8 B a need and a diff's bytes (Host.post). The Req
// pointer models the requester-local event handle that rides in the
// header; only the requester dereferences it. A request turns around in
// place as its answer, so the header a thread sends is the one that wakes
// it; a reply with bytes rides on to the requester as their payload
// (postData), and the thread recycles a service's answer once it has read
// it.
type Msg struct {
	PoolState // recycled mark under -tags invariants; empty otherwise
	Link      // its place in a directory entry's, a lock's or a fetch queue

	Type mtype
	From int    // original requester host, on the way out and back
	Addr uint64 // faulting address; the minipage's base in lrc-mw's headers; an allocation's (ALLOC_REPLY)

	Info core.Info // translation info, filled in at the requester (reserved header space); an allocation's sharing unit

	Prefetch bool     // request was issued by a prefetch: no thread is waiting
	Excl     bool     // a read under a lock its host has written under: served exclusive if it can be (admit)
	Requeued bool     // queued at the directory or parked by fetch, to be served again (stats count it once)
	Owner    bool     // ALLOC_REPLY: the requester may map Info writable at once
	Invals   int32    // a write's forward or grant: invalidations the home sent; -1 on each reply to one
	Epoch    uint32   // a home-bound message's: the barrier epoch its sender routed it in (dir)
	Diff     []byte   // encoded run-length diff (mDiffFlush), owned by the message
	Seq      uint64   // the interval of mDiffFlush's diff
	Need     []mwNeed // lrc-mw's read: the diffs its home must have applied first
	Size     int      // ALLOC_REQUEST: the bytes asked for
	LockID   int
	Group    []*Msg // a barrier group: what its tree node collected, up and back down

	// Ext is the class's piggyback: lrc-mw's vector clock and write
	// notices, attached in mwRelease, read and refilled on the coordinator
	// and consumed in mwAcquire; a barrier release's home moves under both.
	Ext *mwSync

	Req *request // the requester's record of the request: its event, reply and reply count
}
