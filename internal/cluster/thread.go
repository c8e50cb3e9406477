package cluster

import (
	"fmt"
	"slices"

	"millipage/internal/core"
	"millipage/internal/sim"
	"millipage/internal/stats"
	"millipage/internal/vm"
)

// Wait is the per-transaction rendezvous between a requesting thread and
// its host's DSM server thread: the event the thread blocks on, plus the
// reply fields the handler fills in before setting it.
type Wait struct {
	Ev    *sim.Event
	Info  core.Info // translation info carried back by the reply
	VA    uint64    // allocation replies: the address handed out
	Owner bool      // allocation replies: requester owns the new unit
	Home  int       // allocation replies: the unit's home host

	// Txn is the transaction id the rendezvous is currently waiting for.
	// Under fault injection the protocol stamps it on outgoing requests so
	// late replies to an abandoned transaction can be recognized and
	// dropped; 0 means "no transaction" (clean path, untagged protocols).
	Txn uint64

	// gen counts WaitSlot resets. Retry timers capture it at registration
	// and stop firing once the slot has been recycled for a new
	// transaction.
	gen uint64
}

// NewWait returns a fresh rendezvous record. Protocols use it for
// transactions that outlive the issuing call (prefetches); synchronous
// paths reuse the thread's slot via WaitSlot.
func NewWait(eng *sim.Engine) *Wait { return &Wait{Ev: sim.NewEvent(eng)} }

// Thread is one application thread's substrate record: its simulated
// process, its rendezvous slot, and its time-breakdown statistics.
// Protocol packages embed *Thread in their own Thread types, which adds
// the protocol-specific API (Malloc, Barrier, ...) on top of the generic
// surface here.
type Thread struct {
	h    *Host
	self any // the protocol's thread wrapper; fault-handler context
	p    *sim.Proc

	// fw is the thread's reusable rendezvous for synchronous blocking
	// operations (faults, malloc, barriers, locks). A thread blocks on at
	// most one of these at a time, so a single record per thread suffices;
	// prefetch paths allocate fresh records because their rendezvous
	// outlives the issuing call.
	fw *Wait

	ID  int // global thread id
	LID int // local index on the host

	// txnSeq feeds NextTxn: the per-thread transaction counter protocols
	// use to tag retryable requests.
	txnSeq uint64

	Stats ThreadStats
}

// SetSelf installs the protocol's thread wrapper as the fault-handler
// context for this thread's memory accesses. Lifecycle.Run calls it
// before the body starts.
func (t *Thread) SetSelf(self any) { t.self = self }

// Proc returns the thread's simulated process (valid once running).
func (t *Thread) Proc() *sim.Proc { return t.p }

// HostRef returns the substrate host the thread runs on.
func (t *Thread) HostRef() *Host { return t.h }

// Host returns the hosting process's id.
func (t *Thread) Host() int { return t.h.id }

// ThreadID returns the global thread id.
func (t *Thread) ThreadID() int { return t.ID }

// NumHosts returns the cluster size.
func (t *Thread) NumHosts() int { return t.h.rt.NumHosts() }

// NumThreads returns the total application thread count.
func (t *Thread) NumThreads() int { return t.h.rt.totalThreads }

// Now returns the current virtual time.
func (t *Thread) Now() sim.Time { return t.p.Now() }

// Compute charges d of pure computation to the thread — the modeled cost
// of the application code between shared-memory operations.
func (t *Thread) Compute(d sim.Duration) {
	t.Stats.ComputeTime += d
	t.p.Sleep(d)
}

// WaitSlot returns the thread's rendezvous, reset for a new transaction.
func (t *Thread) WaitSlot() *Wait {
	if t.fw == nil {
		t.fw = NewWait(t.h.rt.Eng)
		return t.fw
	}
	fw := t.fw
	fw.Ev.Reset()
	fw.Info = core.Info{}
	fw.VA = 0
	fw.Owner = false
	fw.Home = 0
	fw.Txn = 0
	fw.gen++
	return fw
}

// NextTxn returns the thread's next transaction id (monotone from 1).
// Protocols stamp it on retryable requests so managers can deduplicate.
func (t *Thread) NextTxn() uint64 {
	t.txnSeq++
	return t.txnSeq
}

// Block parks the thread on fw's event, releasing the host's busy
// reference so the endpoint poller takes over while it waits.
func (t *Thread) Block(fw *Wait) { t.BlockOn(fw.Ev) }

// BlockOn is Block for a bare event (lrc's flush-completion latch).
func (t *Thread) BlockOn(ev *sim.Event) {
	t.h.EP.SetBusy(-1)
	ev.Wait(t.p)
	t.h.EP.SetBusy(+1)
}

// BlockRetry is Block for requests that must survive faults: while the
// thread is parked, a timer re-issues the request via rs with exponential
// backoff (see Host.ArmRetry), and the request is registered in the
// host's in-flight table so crash recovery re-sends it at once after
// restart. Receivers deduplicate by the transaction id stamped in fw.Txn.
// Timer and registration die when fw's event is set or the slot recycled.
func (t *Thread) BlockRetry(fw *Wait, base sim.Duration, rs Resender) {
	h := t.h
	ent := h.ArmRetry(fw, base, rs)
	ent.holds++
	h.inflight = append(h.inflight, ent)

	t.Block(fw)

	i := slices.Index(h.inflight, ent)
	h.inflight = slices.Delete(h.inflight, i, i+1)
	h.drop(ent)
}

// ResetStats zeroes the thread's accumulated statistics and restarts its
// clock. Benchmarks call it when the timed section begins so setup
// (allocation, data distribution) is excluded from the breakdown.
func (t *Thread) ResetStats() {
	t.Stats = ThreadStats{Start: t.p.Now()}
}

// Read copies len(buf) bytes of shared memory at va into buf, faulting
// and fetching sharing units as the protocol dictates.
func (t *Thread) Read(va uint64, buf []byte) {
	if err := t.h.AS.Access(t.self, va, buf, vm.Read); err != nil {
		panic(fmt.Sprintf("%s: thread %d: read %#x: %v", t.h.rt.Name, t.ID, va, err))
	}
}

// Write stores data into shared memory at va.
func (t *Thread) Write(va uint64, data []byte) {
	if err := t.h.AS.Access(t.self, va, data, vm.Write); err != nil {
		panic(fmt.Sprintf("%s: thread %d: write %#x: %v", t.h.rt.Name, t.ID, va, err))
	}
}

// ReadU32 reads a shared little-endian uint32.
func (t *Thread) ReadU32(va uint64) uint32 {
	v, err := t.h.AS.ReadU32(t.self, va)
	if err != nil {
		panic(err)
	}
	return v
}

// WriteU32 writes a shared little-endian uint32.
func (t *Thread) WriteU32(va uint64, v uint32) {
	if err := t.h.AS.WriteU32(t.self, va, v); err != nil {
		panic(err)
	}
}

// ReadU64 reads a shared little-endian uint64.
func (t *Thread) ReadU64(va uint64) uint64 {
	v, err := t.h.AS.ReadU64(t.self, va)
	if err != nil {
		panic(err)
	}
	return v
}

// WriteU64 writes a shared little-endian uint64.
func (t *Thread) WriteU64(va uint64, v uint64) {
	if err := t.h.AS.WriteU64(t.self, va, v); err != nil {
		panic(err)
	}
}

// ReadF64 reads a shared float64.
func (t *Thread) ReadF64(va uint64) float64 {
	v, err := t.h.AS.ReadF64(t.self, va)
	if err != nil {
		panic(err)
	}
	return v
}

// WriteF64 writes a shared float64.
func (t *Thread) WriteF64(va uint64, v float64) {
	if err := t.h.AS.WriteF64(t.self, va, v); err != nil {
		panic(err)
	}
}

// ThreadStats is the per-thread execution-time breakdown reported in
// Figure 6 (right): computation, prefetch, read faults, write faults and
// synchronization.
type ThreadStats struct {
	Start, End sim.Time

	ComputeTime    sim.Duration
	ReadFaultTime  sim.Duration
	WriteFaultTime sim.Duration
	PrefetchTime   sim.Duration // waits attributable to in-flight prefetches, plus issue cost
	SynchTime      sim.Duration // barriers and locks
	MallocTime     sim.Duration

	ReadFaults  uint64
	WriteFaults uint64
	Prefetches  uint64
	Barriers    uint64
	LockOps     uint64

	// Latency histograms (log-scale) for tail analysis: the paper's mean
	// service delays hide the NT timers' bimodal shape.
	ReadFaultHist  stats.Histogram
	WriteFaultHist stats.Histogram
}

// Total returns the thread's wall time.
func (st ThreadStats) Total() sim.Duration { return st.End.Sub(st.Start) }

// Other returns time not attributed to any category (protocol sends,
// residual bookkeeping); Figure 6 folds this into computation.
func (st ThreadStats) Other() sim.Duration {
	return st.Total() - st.ComputeTime - st.ReadFaultTime - st.WriteFaultTime -
		st.PrefetchTime - st.SynchTime - st.MallocTime
}

// AppThread is the protocol-independent application API: the surface a
// portable DSM program (and the root millipage package) uses, implemented
// by every protocol's Thread type. The generic half comes from the
// embedded *Thread; Malloc, Barrier, Lock and Unlock are protocol policy.
type AppThread interface {
	Host() int
	NumHosts() int
	NumThreads() int
	ThreadID() int
	Now() sim.Time
	Compute(d sim.Duration)
	ResetStats()

	Malloc(size int) uint64
	Read(va uint64, buf []byte)
	Write(va uint64, data []byte)
	ReadU32(va uint64) uint32
	WriteU32(va uint64, v uint32)
	ReadU64(va uint64) uint64
	WriteU64(va uint64, v uint64)
	ReadF64(va uint64) float64
	WriteF64(va uint64, v float64)

	Barrier()
	Lock(id int)
	Unlock(id int)
}
