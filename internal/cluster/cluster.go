// Package cluster is the runtime substrate under dsm's System (Millipage
// and lrc-mw): the one Options struct with its defaulting and
// validation, host and application-thread lifecycle, the fault/message
// rendezvous, message endpoint wiring with pooled envelopes, per-thread
// time-breakdown accounting, trace hooks, and the coordinator — the
// allocation, barrier and lock services of the paper's manager, barriers
// combining up a tree rooted there, with the four thread operations in
// front (service.go).
//
// The protocol above implements the HostHandler interface — fault
// handling, the allocator — declares its messages in a MsgTable, and
// otherwise consists purely of policy: what a fault sends where, what a
// message does to the directory, where allocations live, what a
// release-consistent class does around a synchronization (Consistency).
// Everything mechanical (option checks, spawning threads, the one
// blocking point with its busy-reference counting, envelope pooling, the
// service messages and their handlers, stats) lives here exactly once.
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
	Views          int // application views (minipage protocols), at most core.MaxViews; see Table 2
	ChunkLevel     int // the paper's chunking switch; 0/1 means off
	Seed           int64

	Grain core.Grain // the minipage table's sharing unit (ivy: GrainPage)

	// HomeOf maps a minipage id to its home: the host that runs its
	// directory transactions under millipage, and that every lrc-mw diff
	// is flushed to and every fetch served from. Nil is HomeMod;
	// HomeCentral is the paper's Section 3.3 configuration, every minipage
	// homed at the Coordinator (a request leaves its host translated
	// either way). It must be a pure function into [0, hosts): every host
	// computes homes independently. The Coordinator remains the allocation
	// authority, the lock table and the barrier tree's root.
	HomeOf func(id, hosts int) int

	Net   fastmsg.Params
	Costs Costs

	// Faults, when non-nil and enabled, makes the wire lossy per the plan:
	// frames drop, duplicate, jitter, links partition and hosts crash, all
	// deterministically from the plan's seed. The transport's reliability
	// layer then restores exactly-once FIFO delivery, the only recovery
	// layer: every protocol runs the same code on a lossy wire as on a
	// clean one. Nil (or an all-zero plan) leaves the clean path untouched.
	Faults *faultnet.Plan

	// Trace, if non-nil, records protocol events (message sends, fault
	// entries, handler dispatches) for debugging.
	Trace *trace.Recorder
}

// HomeMod is the default HomeOf: minipage id is homed at host id % hosts.
func HomeMod(id, hosts int) int { return id % hosts }

// HomeCentral is the HomeOf that the root package's CentralManagement
// selects: the paper's one manager, the Coordinator, homes every minipage.
func HomeCentral(id, hosts int) int { return Coordinator }

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
	if o.HomeOf == nil {
		o.HomeOf = HomeMod
	}
	return o
}

// validate rejects every value or combination no protocol can run, with
// an error naming the field. The root package, the registry and the
// protocol constructors rely on it; lrc-mw adds its one refusal of its
// own (dsm.NewMW).
func (o Options) validate(name string) error {
	switch {
	case o.Hosts < 1 || o.Hosts > 1024:
		return fmt.Errorf("%s: Hosts = %d out of range [1, 1024]; set Hosts to the cluster size (the paper uses 8)", name, o.Hosts)
	case o.SharedSize <= 0:
		return fmt.Errorf("%s: SharedSize = %d bytes of shared memory; must be positive", name, o.SharedSize)
	case o.ThreadsPerHost < 1:
		return fmt.Errorf("%s: ThreadsPerHost = %d; must be positive", name, o.ThreadsPerHost)
	case o.ChunkLevel < 1:
		return fmt.Errorf("%s: ChunkLevel = %d; must not be negative", name, o.ChunkLevel)
	}
	return nil
}

// Runtime is one cluster's substrate: the simulation engine, the network,
// the hosts and the application threads. dsm's System builds and holds
// it.
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
}

// New defaults and validates opt for the protocol called name, then
// builds the engine and network. Hosts are attached afterwards with
// NewHost, one call per host in id order.
func New(name string, opt Options) (*Runtime, error) {
	opt = opt.withDefaults()
	if err := opt.validate(name); err != nil {
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
	}
	return rt, nil
}

// NewHost attaches the next host (ids are assigned in call order) and
// wires its fault and message entry points to hh, with the runtime's
// trace recording layered on top; cons, nil for none, runs around its
// synchronizations.
func (rt *Runtime) NewHost(as *vm.AddressSpace, hh HostHandler, cons Consistency) *Host {
	id := len(rt.hosts)
	h := &Host{rt: rt, id: id, AS: as, EP: rt.Net.Endpoint(id), handler: hh, cons: cons, parked: make([]any, rt.Opt.Hosts)}
	h.node, h.parent, h.expect = barrierTree(id, rt.Opt.Hosts, rt.Opt.ThreadsPerHost)
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
// body to execute. dsm's System.Run makes its thread wrapper around t
// there, installs it with t.SetSelf (so faults carry the wrapper as
// context) and closes over it.
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
