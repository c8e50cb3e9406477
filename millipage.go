// Package millipage is a Go reproduction of "MultiView and Millipage —
// Fine-Grain Sharing in Page-Based DSMs" (Itzkovitz & Schuster, OSDI '99):
// a page-based software distributed shared memory with sharing units
// smaller than a page.
//
// The MultiView technique maps one memory object into several virtual
// views; each view's pages carry independent protections, so sub-page
// objects ("minipages") that share a physical page get individual access
// control through the ordinary VM mechanism — false sharing disappears
// without relaxing consistency. Millipage builds a sequentially
// consistent Single-Writer/Multiple-Readers DSM on top, with a thin
// manager-based protocol: no twins, no diffs, no code instrumentation.
//
// Because the original runs on Windows NT page protections, SEH fault
// interception and a Myrinet cluster, this reproduction executes on a
// deterministic simulated substrate: a software VM layer with real page
// tables, protections and fault upcalls; a FastMessages-like network
// calibrated to the paper's measured costs; and a virtual-time engine.
// Applications written against this package perform real shared-memory
// computation (the bytes are real; the protocol moves them); the clock
// they observe is the calibrated virtual clock of the paper's testbed.
//
// # Quick start
//
//	cluster, err := millipage.NewCluster(millipage.Config{
//		Hosts:        4,
//		SharedMemory: 1 << 20,
//		Views:        8,
//	})
//	if err != nil { ... }
//	report, err := cluster.Run(func(w *millipage.Worker) {
//		if w.Host() == 0 {
//			addr := w.Malloc(256)
//			w.WriteU32(addr, 42)
//		}
//		w.Barrier()
//		// every host reads the shared value
//	})
//
// See examples/ for complete programs and internal/apps for the paper's
// five-application benchmark suite.
package millipage

import (
	"fmt"

	"millipage/internal/cluster"
	"millipage/internal/core"
	"millipage/internal/dsm"
	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/registry"
	"millipage/internal/sim"
)

// Addr is an address in the shared application-view address space, as
// returned by Worker.Malloc. It is valid on every host without
// translation.
type Addr = uint64

// Duration is virtual time on the simulated testbed's clock
// (nanoseconds).
type Duration = sim.Duration

// Config describes a Millipage cluster.
type Config struct {
	// Protocol selects the coherence protocol the cluster runs:
	//
	//	"millipage" (or "") — the paper's protocol: MultiView minipages,
	//	        sequentially consistent Single-Writer/Multiple-Readers.
	//	"ivy"       — the Li/Hudak page-granularity baseline with
	//	        distributed page managers: millipage with
	//	        PageGranularity as its preset and its default placement,
	//	        so it rejects PageGranularity and CentralManagement set
	//	        here; Views and ChunkLevel have no meaning at page grain.
	//	"lrc-mw"    — multiple-writer lazy release consistency over
	//	        minipages (internal/dsm's second class): twins and
	//	        diffs, per-host vector timestamps partition execution
	//	        into intervals,
	//	        write notices piggyback on lock grants and barrier
	//	        releases, and an acquire invalidates only minipages with
	//	        a causally newer write. Diffs are flushed to each
	//	        minipage's home at release, and the next fault fetches
	//	        the minipage from its home. Programs must be
	//	        data-race-free (synchronize through Barrier/Lock, never
	//	        by spinning on shared memory). "lrc" is an alias: it
	//	        named a single-writer variant, since deleted.
	//
	// All protocols run the same Worker API on the same simulated
	// substrate, so apps and benchmarks sweep protocols by changing only
	// this field. PageGranularity and CentralManagement mean the same
	// under millipage and lrc-mw; ivy fixes both.
	Protocol string

	// Hosts is the number of machines (the paper's cluster has 8).
	// Required, in [1, 1024].
	Hosts int

	// ThreadsPerHost is the number of application threads per host.
	// The paper's machines are uniprocessors; default 1. Only millipage
	// (and its ivy preset) runs more than one.
	ThreadsPerHost int

	// SharedMemory is the size of the shared region in bytes. Required.
	SharedMemory int

	// Views is the number of application views, which bounds how many
	// minipages can share one physical page (Section 2.4). Default 1,
	// at most 62: each view is one mapping a page-table entry names.
	Views int

	// ChunkLevel aggregates this many successive same-size allocations
	// into one minipage (Section 4.4's chunking switch). 0/1 = off.
	ChunkLevel int

	// PageGranularity selects the traditional page-based layout instead
	// of MultiView: allocations pack with no regard for sharing units and
	// the sharing grain is the full page. This is the false-sharing
	// baseline (and Figure 7's "none" configuration). ivy is millipage
	// with it set.
	PageGranularity bool

	// CentralManagement homes every minipage at host 0, the paper's
	// manager (Section 3.3), instead of at the default's statically
	// assigned home host (id % Hosts) — the same protocol under another
	// placement function. Under millipage every fault, invalidation and
	// ack then goes through host 0; under lrc-mw every fetch and diff
	// flush. Host 0 is the allocation authority and keeps the barrier
	// and lock services either way. Application results are identical
	// either way; only the protocol load distribution (and hence timing)
	// changes. ivy fixes its own placement and rejects it.
	CentralManagement bool

	// Seed makes runs reproducible; equal seeds give identical traces.
	// Default 1.
	Seed int64

	// PerfectTimers removes the NT multimedia-timer pathology from the
	// service threads (Section 3.5.1) — the "once the polling and timer
	// resolution problems are solved" ablation.
	PerfectTimers bool

	// Faults, when non-nil and enabled, injects deterministic network and
	// host faults per the plan (drops, duplicates, reordering, delay
	// jitter, link partitions, host crash/restart), all drawn from the
	// plan's seed. The substrate's reliability layer restores
	// exactly-once FIFO delivery, so applications still run to completion
	// with the same results — only timing changes. Nil (or an all-zero plan) leaves the clean path
	// untouched.
	Faults *faultnet.Plan
}

// Cluster is a DSM cluster ready to run one application under the
// configured protocol.
type Cluster struct {
	protocol string
	sc       bool // the protocol is SC: its Workers take the Millipage hints
	sys      cluster.System
}

// netParams returns the fastmsg parameters cfg implies: zero (letting
// the protocol fill its calibrated defaults) unless PerfectTimers asks
// for the idealized service threads.
func (cfg Config) netParams() fastmsg.Params {
	if !cfg.PerfectTimers {
		return fastmsg.Params{}
	}
	p := fastmsg.DefaultParams()
	p.PerfectTimers = true
	p.SweepShortLo = 30 * sim.Microsecond
	return p
}

// NewCluster builds a cluster from cfg. Every value and combination the
// chosen protocol cannot run is rejected by the kernel's one validation
// site (cluster.New, reached through the registry) with an error naming
// the field.
func NewCluster(cfg Config) (*Cluster, error) {
	spec, err := registry.Lookup(cfg.Protocol)
	if err != nil {
		return nil, fmt.Errorf("millipage: %w", err)
	}
	opt := registry.Options{
		Hosts:          cfg.Hosts,
		ThreadsPerHost: cfg.ThreadsPerHost,
		SharedSize:     cfg.SharedMemory,
		Views:          cfg.Views,
		ChunkLevel:     cfg.ChunkLevel,
		Seed:           cfg.Seed,
		Net:            cfg.netParams(),
		Faults:         cfg.Faults,
	}
	if cfg.CentralManagement {
		opt.HomeOf = cluster.HomeCentral
	}
	if cfg.PageGranularity {
		opt.Grain = core.GrainPage
	}
	sys, err := spec.New(opt)
	if err != nil {
		return nil, err
	}
	return &Cluster{protocol: spec.Name, sc: spec.SC, sys: sys}, nil
}

// Protocol returns the protocol this cluster runs ("millipage", "ivy" or
// "lrc-mw").
func (c *Cluster) Protocol() string { return c.protocol }

// EngineCounters reports the event engine's deterministic work counts
// (events fired, process switches and the coroutine switches they took,
// fast-path sleeps, calendar high-water mark): what a run cost the
// simulator, as opposed to what it simulated.
func (c *Cluster) EngineCounters() sim.Counters { return c.sys.Runtime().Eng.Counters() }

// Run executes body on ThreadsPerHost application threads on every host
// and blocks until all of them finish, returning the run's Report. A
// Cluster runs one application; create a new Cluster per run.
func (c *Cluster) Run(body func(w *Worker)) (*Report, error) {
	err := c.sys.Run(func(t cluster.AppThread) {
		w := &Worker{t: t}
		if c.sc {
			w.mp = t.(*dsm.Thread)
		}
		body(w)
	})
	if err != nil {
		return nil, err
	}
	return c.report(), nil
}

// System exposes the underlying minipage system for benchmarks and tests
// that need raw access (statistics, directory state). Every protocol
// builds one: millipage and ivy under SC, lrc-mw under the multi-writer
// class. Most applications never need it.
func (c *Cluster) System() *dsm.System { return c.sys.(*dsm.System) }
