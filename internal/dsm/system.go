package dsm

import (
	"fmt"

	"millipage/internal/cluster"
	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
	"millipage/internal/trace"
	"millipage/internal/vm"
)

// Management selects how directory duties are placed across the cluster.
type Management int

const (
	// Central is the paper's Section 3.3 configuration: host 0 handles
	// every fault, invalidation reply, ack and push for every minipage.
	Central Management = iota
	// HomeBased shards the directory: each minipage has a statically
	// assigned home host (Options.HomeOf, default id % Hosts) that runs
	// its transactions. Host 0 remains the allocation authority, and
	// barriers/locks stay centralized there.
	HomeBased
)

func (m Management) String() string {
	if m == HomeBased {
		return "home-based"
	}
	return "central"
}

// Options configures a Millipage cluster.
type Options struct {
	Hosts          int // number of hosts (the paper's cluster: 1..8)
	ThreadsPerHost int // application threads per host (paper: uniprocessors, 1)
	SharedSize     int // bytes of shared memory (the memory object size)
	Views          int // application views; see Table 2 for per-app values
	ChunkLevel     int // the paper's chunking switch; <=1 means off
	Grain          core.Grain
	Seed           int64 // simulation seed (deterministic runs)

	// Management places directory duties: Central (the default, host 0
	// does everything) or HomeBased (per-minipage home hosts).
	Management Management

	// HomeOf maps a minipage id to its home host under HomeBased
	// management. Nil selects the static default, id % hosts. It must be
	// a pure function: every host computes homes independently.
	HomeOf func(id, hosts int) int

	// Replication replicates each directory shard as a primary/backup
	// pair coordinated by a view service on host 0: directory mutations
	// are mirrored to the backup before their effects escape, and on the
	// primary's death the synced backup promotes and re-serves, so a
	// crashed manager no longer stalls the minipages it homes until
	// restart. Requires HomeBased management and the sequential engine.
	// See docs/PROTOCOL.md, "Replicated management".
	Replication bool

	// Engine selects the event engine ("seq" default, "par" for the
	// sharded parallel engine) and ParWorkers bounds its goroutines; see
	// cluster.Config.
	Engine     string
	ParWorkers int

	Net   fastmsg.Params
	Costs Costs

	// Faults, when non-nil and enabled, makes the wire lossy per the plan:
	// frames drop, duplicate, jitter, links partition and hosts crash, all
	// deterministically from the plan's seed. The transport's reliability
	// layer and the protocol's retry/dedup machinery then restore
	// exactly-once FIFO semantics. Nil (or an all-zero plan) leaves the
	// clean path untouched.
	Faults *faultnet.Plan

	// Trace, if non-nil, records protocol events (message sends, fault
	// entries, handler dispatches) for debugging.
	Trace *trace.Recorder
}

// withDefaults fills zero fields with the calibrated defaults.
func (o Options) withDefaults() Options {
	if o.Hosts == 0 {
		o.Hosts = 1
	}
	if o.ThreadsPerHost == 0 {
		o.ThreadsPerHost = 1
	}
	if o.Views == 0 {
		o.Views = 1
	}
	if o.ChunkLevel == 0 {
		o.ChunkLevel = 1
	}
	if o.Net == (fastmsg.Params{}) {
		o.Net = fastmsg.DefaultParams()
	}
	if o.Costs == (Costs{}) {
		o.Costs = DefaultCosts()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.HomeOf == nil {
		o.HomeOf = func(id, hosts int) int { return id % hosts }
	}
	return o
}

// System is one Millipage cluster: the shared cluster runtime plus the
// protocol state — the MPT and one directory shard per host. Host 0 is
// the allocation authority and, under Central management, the sole
// directory manager; under HomeBased management every host runs the
// directory shard for the minipages it is home to.
type System struct {
	Opt    Options
	Eng    *sim.Engine
	Net    *fastmsg.Network
	Layout core.Layout

	rt    *cluster.Runtime
	hosts []*Host
	mpt   *core.MPT  // grown only on host 0; read-only replica elsewhere
	mgrs  []*manager // one directory shard per host
	repl  []*replMgr // per-host replication layer; nil when Replication is off

	// pools holds the clean-path freelists (recycled protocol headers
	// and minipage-snapshot buffers), one per calendar shard. On the
	// sequential engine every host shares pools[0] — the historical
	// system-wide pool; under the parallel engine each host owns its
	// shard's pool, so the freelists never cross shards. See
	// Host.allocPM / Host.allocBuf.
	pools []*hostPool

	threads []*Thread
}

// hostPool is one calendar shard's clean-path freelists.
type hostPool struct {
	freePM  []*pmsg
	freeBuf [][]byte
}

// New builds a cluster. The memory object, views and privileged view are
// mapped identically in every host (Section 2.4: no address translation
// between hosts is ever needed).
func New(opt Options) (*System, error) {
	opt = opt.withDefaults()
	if opt.Hosts < 1 || opt.Hosts > 1024 {
		return nil, fmt.Errorf("dsm: Hosts = %d out of range [1,1024]", opt.Hosts)
	}
	if opt.SharedSize <= 0 {
		return nil, fmt.Errorf("dsm: SharedSize must be positive")
	}
	layout, err := core.NewLayout(opt.SharedSize, opt.Views)
	if err != nil {
		return nil, err
	}
	if opt.Faults.Enabled() {
		if err := opt.Faults.Validate(opt.Hosts); err != nil {
			return nil, fmt.Errorf("dsm: %w", err)
		}
	}
	if opt.Replication {
		if opt.Management != HomeBased {
			return nil, fmt.Errorf("dsm: Replication requires HomeBased management")
		}
		if opt.Engine == "par" {
			return nil, fmt.Errorf("dsm: Replication requires the sequential engine")
		}
	}
	rt, err := cluster.New(cluster.Config{
		Name:           "dsm",
		Hosts:          opt.Hosts,
		ThreadsPerHost: opt.ThreadsPerHost,
		Seed:           opt.Seed,
		Engine:         opt.Engine,
		ParWorkers:     opt.ParWorkers,
		Net:            opt.Net,
		Costs:          opt.Costs,
		Faults:         opt.Faults,
		Trace:          opt.Trace,
	})
	if err != nil {
		return nil, err
	}
	s := &System{Opt: opt, Eng: rt.Eng, Net: rt.Net, Layout: layout, rt: rt}
	s.pools = make([]*hostPool, rt.Eng.NumShards())
	for i := range s.pools {
		s.pools[i] = &hostPool{}
	}

	frames := vm.NewFramePool()
	for i := 0; i < opt.Hosts; i++ {
		as := vm.NewAddressSpace()
		region, err := core.NewRegion(layout, as, frames)
		if err != nil {
			return nil, fmt.Errorf("dsm: host %d: %w", i, err)
		}
		h := &Host{
			sys:        s,
			Region:     region,
			pendingHdr: make([]*pmsg, opt.Hosts),
		}
		h.Host = rt.NewHost(as, h)
		h.pool = s.pools[h.Shard().ID()]
		s.hosts = append(s.hosts, h)
	}
	s.mpt = core.NewMPT(layout, opt.Grain, opt.ChunkLevel)
	if rt.Eng.NumShards() > 1 {
		// Every host routes through the shared MPT replica concurrently
		// under the parallel engine; host 0's allocation-time growth needs
		// the replica's reader lock (see core.MPT.SetShared).
		s.mpt.SetShared(true)
	}
	for i := 0; i < opt.Hosts; i++ {
		s.mgrs = append(s.mgrs, newManager(s, i))
	}
	if opt.Replication {
		s.initRepl()
		s.startReplDaemons()
	}
	return s, nil
}

// Host returns host i (0 is the manager).
func (s *System) Host(i int) *Host { return s.hosts[i] }

// NumHosts returns the cluster size.
func (s *System) NumHosts() int { return s.Opt.Hosts }

// Runtime returns the shared cluster substrate (engine, network, threads),
// for protocol-independent reporting.
func (s *System) Runtime() *cluster.Runtime { return s.rt }

// Manager returns host 0's manager state (directory, MPT, counters).
// Under Central management it holds every directory entry.
func (s *System) Manager() *manager { return s.mgrs[managerHost] }

// ManagerAt returns host i's directory shard. Under Central management
// only host 0's shard is populated.
func (s *System) ManagerAt(i int) *manager { return s.mgrs[i] }

// ManagerStatsTotal sums the protocol counters over every directory
// shard. Under Central management it equals Manager().Stats.
func (s *System) ManagerStatsTotal() ManagerStats {
	var tot ManagerStats
	for _, mg := range s.mgrs {
		tot.ReadReqs += mg.Stats.ReadReqs
		tot.WriteReqs += mg.Stats.WriteReqs
		tot.Invalidations += mg.Stats.Invalidations
		tot.CompetingRequests += mg.Stats.CompetingRequests
		tot.BarrierEpisodes += mg.Stats.BarrierEpisodes
		tot.LockAcquisitions += mg.Stats.LockAcquisitions
		tot.Allocs += mg.Stats.Allocs
		tot.Pushes += mg.Stats.Pushes
	}
	return tot
}

// homeOf returns the host that runs the directory for minipage id:
// host 0 under Central management, Options.HomeOf otherwise.
func (s *System) homeOf(id int) int {
	if s.Opt.Management == Central {
		return managerHost
	}
	return s.Opt.HomeOf(id, s.Opt.Hosts)
}

// Threads returns the application threads after Run (for statistics).
func (s *System) Threads() []*Thread { return s.threads }

// Run starts ThreadsPerHost application threads on every host, each
// executing body, and drives the simulation until all of them finish.
// body receives the thread context, which is the entire application-facing
// DSM API (Malloc, memory access, Barrier, Lock/Unlock, Prefetch, Push).
func (s *System) Run(body func(t *Thread)) error {
	return s.RunPerHost(func(t *Thread) { body(t) })
}

// RunPerHost is Run with explicit control retained for symmetry; kept
// separate so future per-host bodies don't change Run's signature.
func (s *System) RunPerHost(body func(t *Thread)) error {
	if body == nil {
		return fmt.Errorf("dsm: nil thread body")
	}
	return s.rt.Run(func(ct *cluster.Thread) func() {
		t := &Thread{Thread: ct, host: s.hosts[ct.Host()]}
		ct.SetSelf(t)
		s.threads = append(s.threads, t)
		return func() { body(t) }
	})
}

// Elapsed returns the virtual time at which the simulation stopped — the
// parallel execution time of the application.
func (s *System) Elapsed() sim.Duration { return sim.Duration(s.Eng.Now()) }
