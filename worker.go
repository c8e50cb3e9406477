package millipage

import (
	"millipage/internal/cluster"
	"millipage/internal/dsm"
	"millipage/internal/sim"
)

// Worker is one application thread's handle on the DSM — the whole
// user-facing Millipage API (the paper's Section 3.4 library): shared
// allocation, memory access, barriers, locks, prefetch and push updates.
// A Worker is only valid inside the body function passed to Cluster.Run,
// on its own thread.
//
// The core surface is protocol-independent: the same body runs under
// any Config.Protocol. Prefetch, Push and GangFetch are Millipage
// performance hints; under other protocols they are correct no-ops.
type Worker struct {
	t  cluster.AppThread
	mp *dsm.Thread // non-nil only under millipage and its ivy preset
}

// Host returns the id of the host this worker runs on (0..Hosts-1).
// Host 0 is the manager.
func (w *Worker) Host() int { return w.t.Host() }

// NumHosts returns the cluster size.
func (w *Worker) NumHosts() int { return w.t.NumHosts() }

// ThreadID returns the worker's global thread id (0..NumThreads-1).
func (w *Worker) ThreadID() int { return w.t.ThreadID() }

// NumThreads returns the total number of application threads.
func (w *Worker) NumThreads() int { return w.t.NumThreads() }

// Now returns the current virtual time since the start of the run.
func (w *Worker) Now() Duration { return sim.Duration(w.t.Now()) }

// Compute charges d of application computation to this thread — the
// modeled cost of the code between shared-memory operations.
func (w *Worker) Compute(d Duration) { w.t.Compute(d) }

// ResetStats zeroes this thread's time-breakdown statistics and restarts
// its clock. Benchmarks call it at the start of the timed section so
// setup is excluded from the reported breakdown.
func (w *Worker) ResetStats() { w.t.ResetStats() }

// Malloc allocates size bytes of shared memory and returns its address,
// valid on every host. Allocation defines the sharing unit: each
// allocation (or chunk of allocations, with Config.ChunkLevel) becomes
// one minipage with independent coherence.
func (w *Worker) Malloc(size int) Addr { return w.t.Malloc(size) }

// Read copies len(buf) bytes of shared memory at addr into buf, fetching
// minipages from their owners as needed.
func (w *Worker) Read(addr Addr, buf []byte) { w.t.Read(addr, buf) }

// Write stores data into shared memory at addr, acquiring exclusive
// ownership of the covered minipages as needed.
func (w *Worker) Write(addr Addr, data []byte) { w.t.Write(addr, data) }

// ReadU32 reads a shared little-endian uint32.
func (w *Worker) ReadU32(addr Addr) uint32 { return w.t.ReadU32(addr) }

// WriteU32 writes a shared little-endian uint32.
func (w *Worker) WriteU32(addr Addr, v uint32) { w.t.WriteU32(addr, v) }

// ReadU64 reads a shared little-endian uint64.
func (w *Worker) ReadU64(addr Addr) uint64 { return w.t.ReadU64(addr) }

// WriteU64 writes a shared little-endian uint64.
func (w *Worker) WriteU64(addr Addr, v uint64) { w.t.WriteU64(addr, v) }

// ReadF64 reads a shared float64.
func (w *Worker) ReadF64(addr Addr) float64 { return w.t.ReadF64(addr) }

// WriteF64 writes a shared float64.
func (w *Worker) WriteF64(addr Addr, v float64) { w.t.WriteF64(addr, v) }

// Barrier blocks until every application thread in the cluster arrives.
func (w *Worker) Barrier() { w.t.Barrier() }

// Lock acquires the cluster-wide lock id; grants are FIFO.
func (w *Worker) Lock(id int) { w.t.Lock(id) }

// Unlock releases lock id.
func (w *Worker) Unlock(id int) { w.t.Unlock(id) }

// Prefetch asynchronously requests a read copy of the minipage(s) backing
// [addr, addr+size), overlapping the fetch with computation. It is a
// Millipage performance hint (ivy too); under lrc-mw a no-op.
func (w *Worker) Prefetch(addr Addr, size int) {
	if w.mp != nil {
		w.mp.Prefetch(addr, size)
	}
}

// Push replicates the minipage containing addr — which this worker's host
// must hold writable — to every host as a read copy. Use it for
// frequently read, rarely written values (the paper's TSP minimal-tour
// bound). It is a Millipage performance hint (ivy too); under lrc-mw it
// is a no-op.
func (w *Worker) Push(addr Addr) {
	if w.mp != nil {
		w.mp.Push(addr)
	}
}

// Span names a shared region for group operations.
type Span = dsm.Span

// GangFetch fetches every missing minipage backing the spans
// concurrently and blocks once for the whole group — the paper's
// composed-views idea: coarse-grain read phases over fine-grain sharing
// units. It is a Millipage performance hint (ivy too); under lrc-mw it
// is a no-op.
func (w *Worker) GangFetch(spans []Span) {
	if w.mp != nil {
		w.mp.GangFetch(spans)
	}
}
