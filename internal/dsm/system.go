package dsm

import (
	"fmt"

	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/hostset"
	"millipage/internal/sim"
	"millipage/internal/trace"
	"millipage/internal/vm"
)

// Options configures one simulated cluster. Both classes take the same
// struct — the registry builds any protocol from one value — and New is
// the one place it is defaulted and validated.
type Options struct {
	Hosts          int // number of hosts, in [1, 1024]; required
	ThreadsPerHost int // application threads per host (paper: uniprocessors, 1)
	SharedSize     int // bytes of shared memory; required
	Views          int // application views, at most core.MaxViews; see Table 2
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
	// layer: both classes run the same code on a lossy wire as on a clean
	// one. Nil (or an all-zero plan) leaves the clean path untouched.
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
// an error naming the field; lrc-mw adds its one refusal (newSystem).
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

// System is one minipage cluster under one of two consistency classes,
// which its constructor sets: New's sequentially consistent Millipage, and
// NewMW's multi-writer lazy release consistency (mw.go). Either way it is
// the simulation engine, the network, the hosts and the application
// threads, plus the MPT, which grows only on host 0 (the allocation
// authority), and minipage id's home starts at HomeOf(id) — HomeMod by
// default, host 0 under HomeCentral, the paper's manager — and follows a
// stable sole writer (home.go). Under SC each host runs the directory for
// the minipages homed at it; under lrc-mw the home serves fetches and
// applies diffs; host 0 logs notices.
type System struct {
	Name   string  // the protocol's, as the caller chose it; prefixes every refusal and misuse panic
	Opt    Options // as defaulted by New
	Eng    *sim.Engine
	Net    *fastmsg.Network
	Layout core.Layout

	hosts   []*Host
	threads []*Thread // by global id, made by Run
	svc     services  // the coordinator's allocator, barrier and lock state

	mw  bool      // the multi-writer class
	mpt *core.MPT // grown only on host 0; read-only replica elsewhere

	// dir is the SC directory, one entry per minipage id in slabs of
	// dirSlab, so that growing it moves no entry. The allocation authority
	// places each entry (Host.allocLocal); after that only the minipage's
	// home touches it (Host.entry).
	dir   [][]dirEntry
	marks hostset.Table // each minipage's copyset and every host's two marks on it, grown with dir

	places  []writeRecord // by minipage id, read in place by moves (home.go)
	homes   []int16       // host 0's home table by minipage id: 1 + the host a barrier moved it to; 0 while at HomeOf
	spare   []int16       // the table before it
	moved   []homeMove    // the last barrier's moves, which every release shares
	epoch   uint32        // barrier epochs completed
	release mwSync        // the record every SC release carries

	// lrc-mw's coordinator state (host 0 only).
	log     []mwNotice // append-only between barriers, cleared at each
	logPrev []int      // logPrev[i]: position of the previous notice by log[i]'s creator, or -1
	logLast []int      // per creator: 1 + position of its latest notice, or 0 (Seq rises along each chain)
	stats   MWStats    // every host's lrc-mw counters, and both classes' Migrations: hosts run one at a time

	// The cluster's freelists, shared by every host. See Host.allocPM.
	freePM   Pool[Msg]
	freeSync Pool[mwSync]
	freeBuf  SlicePool[byte] // minipage snapshots, recycled once installed, and lrc-mw's twins
}

// New builds a Millipage cluster for the protocol called name (millipage,
// or ivy at page grain). The memory object, views and privileged view are
// mapped identically in every host (Section 2.4: no address translation
// between hosts is ever needed).
func New(name string, opt Options) (*System, error) { return newSystem(name, opt, false) }

// NewMW builds a multi-writer LRC cluster, one application thread a host:
// a host's interval, vector clock and twins are its one thread's.
func NewMW(name string, opt Options) (*System, error) { return newSystem(name, opt, true) }

func newSystem(name string, opt Options, mw bool) (*System, error) {
	opt = opt.withDefaults()
	if err := opt.validate(name); err != nil {
		return nil, err
	}
	s := &System{Name: name, Opt: opt, Eng: sim.NewEngine(opt.Seed), mw: mw, hosts: make([]*Host, opt.Hosts)}
	s.Net = fastmsg.New(s.Eng, opt.Hosts, opt.Net)
	if opt.Faults.Enabled() {
		inj, err := faultnet.NewInjector(*opt.Faults, opt.Hosts, opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		s.Net.InstallFaults(inj)
	}
	if mw && opt.ThreadsPerHost > 1 {
		return nil, fmt.Errorf("%s: ThreadsPerHost = %d, but lrc-mw runs one thread per host", name, opt.ThreadsPerHost)
	}
	s.marks = hostset.NewTable(opt.Hosts, numMarks)
	var err error
	if s.Layout, err = core.NewLayout(opt.SharedSize, opt.Views); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	frames := vm.NewFramePool()
	for i := range s.hosts {
		as := vm.NewAddressSpace()
		region, err := core.NewRegion(s.Layout, as, frames)
		if err != nil {
			return nil, fmt.Errorf("%s: host %d: %w", name, i, err)
		}
		h := &Host{sys: s, id: i, AS: as, Region: region, parked: make([]*Msg, opt.Hosts)}
		if mw {
			h.vc, h.flushed, h.applyDone = make([]uint64, opt.Hosts), make([]uint64, opt.Hosts), sim.NewEvent(s.Eng)
		}
		h.EP = s.Net.Endpoint(i)
		h.node, h.parent, h.expect = barrierTree(i, opt.Hosts, opt.ThreadsPerHost)
		as.SetFaultHandler(h.onFault)
		h.EP.SetServer(h)
		s.hosts[i] = h
	}
	s.mpt = core.NewMPT(s.Layout, opt.Grain, opt.ChunkLevel)
	return s, nil
}

// Run runs body on ThreadsPerHost new threads of every host until all of
// them finish, or returns ErrStopped. A System runs one application.
func (s *System) Run(body func(*Thread)) error {
	switch {
	case body == nil:
		return fmt.Errorf("%s: nil thread body", s.Name)
	case s.threads != nil:
		return fmt.Errorf("%s: System.Run called twice; create a new System per run", s.Name)
	}
	for _, h := range s.hosts {
		for j := 0; j < s.Opt.ThreadsPerHost; j++ {
			t := &Thread{host: h, ID: len(s.threads), LID: j}
			s.threads = append(s.threads, t)
			t.p = s.Eng.Spawn(fmt.Sprintf("app-%d.%d", h.id, j), func(p *sim.Proc) {
				h.EP.SetBusy(+1)
				body(t)
				t.Stats.End, t.p = p.Now(), nil
				h.EP.SetBusy(-1)
			})
		}
	}
	err := s.Eng.Run()
	for _, t := range s.threads {
		if stopped, is := err.(ErrStopped); t.p != nil && (err == nil || is) {
			err = append(stopped, sim.BlockedProc{Name: t.p.Name(), Waiting: t.op.For})
		}
	}
	return err
}

// ErrStopped is the threads Eng.Stop left unfinished, each with its last Blocking.For.
type ErrStopped []sim.BlockedProc

func (e ErrStopped) Error() string { return fmt.Sprint("dsm: stopped: ", []sim.BlockedProc(e)) }

// Host returns host i.
func (s *System) Host(i int) *Host { return s.hosts[i] }

// NumHosts returns the cluster size.
func (s *System) NumHosts() int { return len(s.hosts) }

// ProtOf reports host h's application-view protection for va (check.Prots).
func (s *System) ProtOf(h int, va uint64) (vm.Prot, error) { return s.hosts[h].AS.ProtOf(va) }

// Threads returns the application threads after Run (for statistics).
func (s *System) Threads() []*Thread { return s.threads }

// Elapsed returns the virtual time at which the simulation stopped — the
// parallel execution time of the application.
func (s *System) Elapsed() sim.Duration { return sim.Duration(s.Eng.Now()) }

// HomeOf returns minipage id's home before any move: Options.HomeOf's
// answer (New defaults it).
func (s *System) HomeOf(id int) int { return s.Opt.HomeOf(id, s.Opt.Hosts) }

// checkHomes panics as misuse unless HomeOf homes each of the minipage
// ids [lo, hi) on a host. The allocators call it as they open them, so a
// placement outside the cluster fails at the Malloc that first asks it,
// not as an index out of range under a later send.
func (s *System) checkHomes(lo, hi int) {
	for id, n := lo, s.Opt.Hosts; id < hi; id++ {
		if home := s.HomeOf(id); home < 0 || home >= n {
			s.misuse(Coordinator, "HomeOf(%d, %d) = %d is not a host", id, n, home)
		}
	}
}

// misuse reports an application's misuse of a service, or of an Options
// function found out about at run time (HomeOf): it surfaces from Run
// naming the protocol, the host concerned and what was asked.
func (s *System) misuse(from int, format string, args ...any) {
	panic(fmt.Sprintf("%s: host %d: %s", s.Name, from, fmt.Sprintf(format, args...)))
}

// MPT exposes the minipage table (for statistics and tests).
func (s *System) MPT() *core.MPT { return s.mpt }

// ManagerStatsTotal sums the SC directory counters over every host.
func (s *System) ManagerStatsTotal() (tot ManagerStats) {
	for i := 0; i < s.NumHosts(); i++ {
		st := &s.Host(i).Stats
		tot = ManagerStats{tot.ReadReqs + st.ReadReqs, tot.WriteReqs + st.WriteReqs, tot.Invalidations + st.Invalidations,
			tot.CompetingRequests + st.CompetingRequests, tot.Pushes + st.Pushes, tot.ExclusiveReads + st.ExclusiveReads}
	}
	return tot
}

// MWStats returns the cluster's lrc-mw counters.
func (s *System) MWStats() MWStats { return s.stats }

// Totals is the run's protocol counter set. A field stays zero where a
// consistency class has no equivalent.
type Totals struct {
	Invalidations     uint64
	CompetingRequests uint64 // requests queued behind open transactions
	ExclusiveReads    uint64 // SC reads under a lock that the home served as write misses
	BarrierEpisodes   uint64
	LockAcquisitions  uint64

	// Footprint (Table 2 columns).
	Minipages      int
	ViewsUsed      int
	BytesAllocated int
}

// Totals reports the run's protocol counters: the coordinator's, the
// MPT's Table-2 columns, and the class's invalidations — the directory's,
// or the minipages write notices made inaccessible.
func (s *System) Totals() Totals {
	ms := s.ManagerStatsTotal()
	t := Totals{Invalidations: ms.Invalidations, CompetingRequests: ms.CompetingRequests, ExclusiveReads: ms.ExclusiveReads,
		BarrierEpisodes: s.svc.episodes, LockAcquisitions: s.svc.locks.Acquisitions,
		Minipages: s.mpt.NumMinipages(), ViewsUsed: s.mpt.ViewsUsed(), BytesAllocated: s.mpt.BytesAllocated()}
	if s.mw {
		t.Invalidations = s.stats.Invalidations
	}
	return t
}
