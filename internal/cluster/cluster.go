// Package cluster is the shared runtime substrate under every DSM
// protocol in this repository (dsm's Millipage, ivy, lrc): host and
// application-thread lifecycle, the fault/message rendezvous, message
// endpoint wiring with pooled envelopes, per-thread time-breakdown
// accounting, trace hooks, and the barrier/lock/queue services the
// protocols' coordinator hosts run.
//
// A protocol implements the HostHandler interface — fault handling,
// message handling and trace description — and otherwise consists purely
// of policy: what a fault sends where, what a message does to the
// directory, where allocations live. Everything mechanical (spawning
// threads, busy-reference counting around blocking points, envelope
// pooling, stats) lives here exactly once.
//
// Determinism contract: the runtime performs no virtual-time operation
// of its own — every Sleep, Send and Wait is issued by the protocol — so
// porting a protocol onto this package is bit-identical in virtual time
// as long as the protocol issues the same sequence of operations.
package cluster

import (
	"fmt"

	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
	"millipage/internal/trace"
	"millipage/internal/vm"
)

// Config describes the substrate of one simulated cluster.
type Config struct {
	// Name prefixes error messages ("dsm", "ivy", "lrc").
	Name string

	Hosts          int
	ThreadsPerHost int
	Seed           int64

	// Engine selects the event engine: "seq" (default) is the classic
	// single-calendar engine, bit-identical to every release since the
	// simulator landed; "par" shards the calendar per host (plus shard 0
	// for global services) and executes the shards concurrently inside
	// conservative lookahead windows. The parallel engine is incompatible
	// with fault injection and tracing, which share state across hosts.
	Engine string

	// ParWorkers bounds the parallel engine's worker goroutines
	// (0 = GOMAXPROCS). The simulation's outcome is identical at every
	// width; only wall-clock time changes.
	ParWorkers int

	Net   fastmsg.Params
	Costs Costs

	// Faults, when non-nil and enabled, makes the wire lossy per the
	// plan and arms fastmsg's reliability layer. Nil — or an all-zero
	// plan — leaves the transport on its untouched clean path.
	Faults *faultnet.Plan

	// Trace, if non-nil, records protocol events (message sends, fault
	// entries, handler dispatches) for debugging.
	Trace *trace.Recorder
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "cluster"
	}
	if c.Hosts == 0 {
		c.Hosts = 1
	}
	if c.ThreadsPerHost == 0 {
		c.ThreadsPerHost = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Net == (fastmsg.Params{}) {
		c.Net = fastmsg.DefaultParams()
	}
	if c.Costs == (Costs{}) {
		c.Costs = DefaultCosts()
	}
	if c.Engine == "" {
		c.Engine = EngineSeq
	}
	return c
}

// Engine selector values for Config.Engine.
const (
	EngineSeq = "seq"
	EnginePar = "par"
)

// Runtime is one cluster's substrate: the simulation engine, the network,
// the hosts and the application threads. Protocol packages wrap it in
// their System types; host-count validation stays with them (each has its
// own documented range and error text).
type Runtime struct {
	Cfg   Config
	Eng   *sim.Engine
	Net   *fastmsg.Network
	Trace *trace.Recorder

	hosts   []*Host
	threads []*Thread

	totalThreads int
	ran          bool
	faulty       bool
}

// New builds the engine and network for cfg. Hosts are attached
// afterwards with NewHost, one call per host in id order. A combination
// of fields the runtime cannot run is an error naming the fields.
func New(cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	var eng *sim.Engine
	switch cfg.Engine {
	case EngineSeq:
		eng = sim.NewEngine(cfg.Seed)
	case EnginePar:
		if cfg.Faults.Enabled() {
			return nil, fmt.Errorf(`%s: Engine "par" is incompatible with Faults (the reliability layer shares per-link state across hosts); use Engine "seq"`, cfg.Name)
		}
		if cfg.Trace != nil {
			return nil, fmt.Errorf(`%s: Engine "par" is incompatible with Trace (the recorder is a single globally ordered ring); use Engine "seq"`, cfg.Name)
		}
		eng = sim.NewShardedEngine(cfg.Seed, cfg.Hosts+1)
		if cfg.ParWorkers > 0 {
			eng.SetParWorkers(cfg.ParWorkers)
		}
	default:
		return nil, fmt.Errorf("%s: unknown Engine %q (want %q or %q)", cfg.Name, cfg.Engine, EngineSeq, EnginePar)
	}
	net := fastmsg.New(eng, cfg.Hosts, cfg.Net)
	rt := &Runtime{Cfg: cfg, Eng: eng, Net: net, Trace: cfg.Trace}
	if cfg.Faults.Enabled() {
		inj, err := faultnet.NewInjector(*cfg.Faults, cfg.Hosts, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Name, err)
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
// in-flight blocking request registered with BlockRetry.
func (rt *Runtime) onRestart(h int) {
	host := rt.hosts[h]
	host.sh.SpawnDaemon(fmt.Sprintf("recover-%d", h), func(p *sim.Proc) {
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
	ep := rt.Net.Endpoint(id)
	h := &Host{rt: rt, id: id, AS: as, EP: ep, sh: ep.Shard(), handler: hh}
	as.SetFaultHandler(h.onFault)
	h.EP.SetHandler(h.onMessage)
	rt.hosts = append(rt.hosts, h)
	return h
}

// Host returns host i.
func (rt *Runtime) Host(i int) *Host { return rt.hosts[i] }

// NumHosts returns the cluster size.
func (rt *Runtime) NumHosts() int { return rt.Cfg.Hosts }

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
// body to execute. A protocol's mk typically allocates its own thread
// wrapper around t, installs it with t.SetSelf (so faults carry the
// wrapper as context) and closes over it.
func (rt *Runtime) Run(mk func(t *Thread) func()) error {
	if mk == nil {
		return fmt.Errorf("%s: nil thread body", rt.Cfg.Name)
	}
	if rt.ran {
		return fmt.Errorf("%s: System.Run called twice; create a new System per run", rt.Cfg.Name)
	}
	rt.ran = true
	rt.totalThreads = rt.Cfg.Hosts * rt.Cfg.ThreadsPerHost
	gid := 0
	for _, h := range rt.hosts {
		for j := 0; j < rt.Cfg.ThreadsPerHost; j++ {
			t := &Thread{h: h, ID: gid, LID: j}
			t.self = t
			rt.threads = append(rt.threads, t)
			gid++
			h := h
			body := mk(t)
			h.sh.Spawn(fmt.Sprintf("app-%d.%d", h.id, j), func(p *sim.Proc) {
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
