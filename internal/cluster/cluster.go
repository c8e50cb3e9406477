// Package cluster is the shared runtime substrate under every DSM
// protocol in this repository (dsm's Millipage, lrc-mw): the
// one Options struct with its defaulting and validation, host and
// application-thread lifecycle, the fault/message rendezvous, message
// endpoint wiring with pooled envelopes, per-thread time-breakdown
// accounting, trace hooks, and the coordinator — the allocation, barrier
// and lock services of the paper's manager, barriers combining up a tree
// rooted there, with the four thread operations in front (service.go).
//
// A protocol implements the HostHandler interface — fault handling,
// message handling, trace description, the allocator — embeds a
// Lifecycle in its System type, and otherwise consists purely of policy:
// what a fault sends where, what a message does to the directory, where
// allocations live, what a release-consistent protocol does around a
// synchronization (Consistency). Everything mechanical (option
// checks, spawning threads, wrapper installation, the one blocking point
// with its busy-reference counting, envelope pooling, the service
// messages and their handlers, stats) lives here exactly once.
//
// Determinism contract: the runtime issues the virtual-time operations
// of the service paths itself — the BarrierBase charge before a barrier
// arrival, the ThreadWake after a service reply, and the sends and waits
// between them — and no others. What an allocation costs (MallocBase,
// MPTLookup, SetProt) and every Sleep, Send and Wait of a fault or a
// coherence message is the protocol's to issue, so porting a protocol
// onto this package is bit-identical in virtual time as long as the
// protocol issues the same sequence of operations.
package cluster

import (
	"fmt"

	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
	"millipage/internal/trace"
	"millipage/internal/vm"
)

// Options configures one simulated cluster. Every protocol takes the
// same struct — the registry builds any of them from one value — and
// New is the one place it is defaulted and validated.
type Options struct {
	Hosts          int // number of hosts, in [1, 1024]; required
	ThreadsPerHost int // application threads per host (paper: uniprocessors, 1)
	SharedSize     int // bytes of shared memory; required
	Views          int // application views (minipage protocols); see Table 2
	ChunkLevel     int // the paper's chunking switch; 0/1 means off
	Seed           int64

	// Grain, HomeOf and Replication are Millipage's directory policy (its
	// ivy preset is GrainPage with HomeMod). lrc-mw homes each minipage
	// at its allocator and rejects all three (Traits.Directory).
	Grain core.Grain

	// HomeOf maps a minipage id to the host that runs its directory
	// transactions. Nil is the paper's Section 3.3 configuration: every
	// minipage is homed at the Coordinator and requests leave their host
	// untranslated. It must be a pure function into [0, hosts): every host
	// computes homes independently. The Coordinator remains the allocation
	// authority, the lock table and the barrier tree's root, either way.
	HomeOf func(id, hosts int) int

	// Replication replicates each directory shard as a primary/backup
	// pair coordinated by a view service on host 0: directory mutations
	// are mirrored to the backup before their effects escape, and on the
	// primary's death the synced backup promotes and re-serves, so a
	// crashed manager no longer stalls the minipages it homes until
	// restart. Requires HomeOf: a directory homed entirely at the
	// Coordinator, which the crash model never kills, has no shard to
	// fail over. See docs/PROTOCOL.md, "Replicated management".
	Replication bool

	Net   fastmsg.Params
	Costs Costs

	// Faults, when non-nil and enabled, makes the wire lossy per the plan:
	// frames drop, duplicate, jitter, links partition and hosts crash, all
	// deterministically from the plan's seed. The transport's reliability
	// layer and the protocols' retry/dedup machinery then restore
	// exactly-once FIFO semantics. Nil (or an all-zero plan) leaves the
	// clean path untouched.
	Faults *faultnet.Plan

	// Trace, if non-nil, records protocol events (message sends, fault
	// entries, handler dispatches) for debugging.
	Trace *trace.Recorder
}

// HomeMod is the HomeOf that the root package's HomeBasedManagement
// selects: minipage id is homed at host id % hosts.
func HomeMod(id, hosts int) int { return id % hosts }

// Traits are the Options a protocol can honour beyond the common core.
// New rejects a request for one the protocol lacks — an unsupported
// cell fails fast, it never silently degrades.
type Traits struct {
	MultiThreaded bool // ThreadsPerHost > 1
	Directory     bool // Millipage's directory policy: Grain, HomeOf, Replication
}

// withDefaults fills zero fields with the calibrated defaults. Hosts and
// SharedSize have none: they are required.
func (o Options) withDefaults() Options {
	if o.ThreadsPerHost == 0 {
		o.ThreadsPerHost = 1
	}
	if o.Views == 0 {
		o.Views = 1
	}
	if o.ChunkLevel == 0 {
		o.ChunkLevel = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Net == (fastmsg.Params{}) {
		o.Net = fastmsg.DefaultParams()
	}
	if o.Costs == (Costs{}) {
		o.Costs = DefaultCosts()
	}
	return o
}

// validate rejects every value or combination the named protocol cannot
// run, with an error naming the field. It is the only such check: the
// root package, the registry and the protocol constructors all rely on
// it.
func (o Options) validate(name string, tr Traits) error {
	switch {
	case o.Hosts < 1 || o.Hosts > 1024:
		return fmt.Errorf("%s: Hosts = %d out of range [1, 1024]; set Hosts to the cluster size (the paper uses 8)", name, o.Hosts)
	case o.SharedSize <= 0:
		return fmt.Errorf("%s: SharedSize = %d bytes of shared memory; must be positive", name, o.SharedSize)
	case o.ThreadsPerHost < 1:
		return fmt.Errorf("%s: ThreadsPerHost = %d; must be positive", name, o.ThreadsPerHost)
	case o.ThreadsPerHost > 1 && !tr.MultiThreaded:
		return fmt.Errorf("%s: ThreadsPerHost = %d, but this protocol runs one thread per host", name, o.ThreadsPerHost)
	case o.ChunkLevel < 1:
		return fmt.Errorf("%s: ChunkLevel = %d; must not be negative", name, o.ChunkLevel)
	case o.Replication && !tr.Directory:
		return fmt.Errorf("%s: Replication is not supported by this protocol", name)
	case o.Grain != core.GrainMinipage && !tr.Directory:
		return fmt.Errorf("%s: Grain is set (PageGranularity), but this protocol fixes its own sharing grain", name)
	case o.HomeOf != nil && !tr.Directory:
		return fmt.Errorf("%s: HomeOf is set (HomeBasedManagement), but this protocol places its own directory", name)
	case o.Replication && o.HomeOf == nil:
		return fmt.Errorf("%s: Replication requires HomeOf (HomeBasedManagement): a directory homed entirely at host %d has no shard to fail over", name, Coordinator)
	}
	return nil
}

// Runtime is one cluster's substrate: the simulation engine, the network,
// the hosts and the application threads. Protocol packages reach it
// through the Lifecycle they embed in their System types.
type Runtime struct {
	Name  string  // the protocol's name; prefixes error messages
	Opt   Options // as defaulted by New
	Eng   *sim.Engine
	Net   *fastmsg.Network
	Trace *trace.Recorder

	hosts   []*Host
	threads []*Thread
	svc     services // the coordinator's allocator, barrier and lock state

	totalThreads int
	ran          bool
	faulty       bool
}

// New defaults and validates opt for the protocol called name, then
// builds the engine and network. Hosts are attached afterwards with
// NewHost, one call per host in id order.
func New(name string, opt Options, tr Traits) (*Runtime, error) {
	opt = opt.withDefaults()
	if err := opt.validate(name, tr); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(opt.Seed)
	net := fastmsg.New(eng, opt.Hosts, opt.Net)
	rt := &Runtime{Name: name, Opt: opt, Eng: eng, Net: net, Trace: opt.Trace}
	if opt.Faults.Enabled() {
		inj, err := faultnet.NewInjector(*opt.Faults, opt.Hosts, opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		net.InstallFaults(inj)
		net.SetRestartHook(rt.onRestart)
		rt.faulty = true
	}
	return rt, nil
}

// Faulty reports whether a fault plan is armed on this runtime.
func (rt *Runtime) Faulty() bool { return rt.faulty }

// CrashRecoverer is optionally implemented by a protocol's HostHandler:
// RecoverCrash runs in a fresh recovery process after the host's network
// stack restarts, before the runtime re-issues the host's in-flight
// blocking requests. Protocols charge their recovery work (rebuilding an
// MPT replica, rescanning a directory shard) as virtual time here.
type CrashRecoverer interface {
	RecoverCrash(p *sim.Proc)
}

// onRestart is the fastmsg restart hook: spawn the host's recovery
// process, which runs protocol recovery and then re-sends every
// in-flight blocking request registered by a Block with a Retry.
func (rt *Runtime) onRestart(h int) {
	host := rt.hosts[h]
	rt.Eng.SpawnDaemon(fmt.Sprintf("recover-%d", h), func(p *sim.Proc) {
		if cr, ok := host.handler.(CrashRecoverer); ok {
			cr.RecoverCrash(p)
		}
		host.resendInflight(p)
	})
}

// NewHost attaches the next host (ids are assigned in call order) and
// wires its fault and message entry points to hh, with the runtime's
// trace recording layered on top.
func (rt *Runtime) NewHost(as *vm.AddressSpace, hh HostHandler) *Host {
	id := len(rt.hosts)
	h := &Host{rt: rt, id: id, AS: as, EP: rt.Net.Endpoint(id), handler: hh, parked: make([]any, rt.Opt.Hosts)}
	h.node, h.parent, h.expect = barrierTree(id, rt.Opt.Hosts, rt.Opt.ThreadsPerHost)
	h.cons, _ = hh.(Consistency)
	as.SetFaultHandler(h.onFault)
	h.EP.SetServer(h)
	rt.hosts = append(rt.hosts, h)
	return h
}

// Host returns host i.
func (rt *Runtime) Host(i int) *Host { return rt.hosts[i] }

// NumHosts returns the cluster size.
func (rt *Runtime) NumHosts() int { return rt.Opt.Hosts }

// Threads returns the application threads after Run (for statistics).
func (rt *Runtime) Threads() []*Thread { return rt.threads }

// TotalThreads returns the application thread count (set by Run).
func (rt *Runtime) TotalThreads() int { return rt.totalThreads }

// Elapsed returns the virtual time at which the simulation stopped — the
// parallel execution time of the application.
func (rt *Runtime) Elapsed() sim.Duration { return sim.Duration(rt.Eng.Now()) }

// Run starts ThreadsPerHost application threads on every host and drives
// the simulation until all of them finish. mk is called once per thread,
// in global-id order, with the thread's substrate record; it returns the
// body to execute. Lifecycle.Run is the mk every protocol uses: it makes
// the protocol's thread wrapper around t, installs it with t.SetSelf (so
// faults carry the wrapper as context) and closes over it.
func (rt *Runtime) Run(mk func(t *Thread) func()) error {
	if mk == nil {
		return fmt.Errorf("%s: nil thread body", rt.Name)
	}
	if rt.ran {
		return fmt.Errorf("%s: System.Run called twice; create a new System per run", rt.Name)
	}
	rt.ran = true
	rt.totalThreads = rt.Opt.Hosts * rt.Opt.ThreadsPerHost
	gid := 0
	for _, h := range rt.hosts {
		for j := 0; j < rt.Opt.ThreadsPerHost; j++ {
			t := &Thread{h: h, ID: gid, LID: j}
			t.self = t
			rt.threads = append(rt.threads, t)
			gid++
			h := h
			body := mk(t)
			rt.Eng.Spawn(fmt.Sprintf("app-%d.%d", h.id, j), func(p *sim.Proc) {
				t.p = p
				h.EP.SetBusy(+1)
				t.Stats.Start = p.Now()
				body()
				t.Stats.End = p.Now()
				h.EP.SetBusy(-1)
			})
		}
	}
	return rt.Eng.Run()
}
