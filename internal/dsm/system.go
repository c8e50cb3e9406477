package dsm

import (
	"fmt"

	"millipage/internal/cluster"
	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/hostset"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// Options configures a cluster. It is the one Options struct every
// protocol shares; cluster.New defaults and validates it.
type Options = cluster.Options

// System is one minipage cluster under one of two consistency classes,
// which its constructor sets: New's sequentially consistent Millipage, and
// NewMW's multi-writer lazy release consistency (mw.go). Either way it is
// the shared cluster runtime plus the MPT, which grows only on host 0 (the
// allocation authority), and minipage id's home starts at HomeOf(id) —
// HomeMod by default, host 0 under HomeCentral, the paper's manager — and
// follows a stable sole writer (home.go). Under SC each host runs the
// directory for the minipages homed at it; under lrc-mw the home serves
// fetches and applies diffs; host 0 logs notices.
type System struct {
	Opt    Options // as defaulted by cluster.New
	Eng    *sim.Engine
	Net    *fastmsg.Network
	Layout core.Layout

	rt      *cluster.Runtime
	hosts   []*Host
	threads []*Thread // by global id, made by Run

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
	moved   []homeMove    // the last barrier's moves, shared like maxvc
	epoch   uint32        // barrier epochs completed
	release mwSync        // the record every SC release carries

	// lrc-mw's coordinator state (host 0 only).
	log     []mwNotice // append-only between barriers, cleared at each
	logPrev []int      // logPrev[i]: position of the previous notice by log[i]'s creator, or -1
	logLast []int      // per creator: 1 + position of its latest notice, or 0 (Seq rises along each chain)
	maxvc   []uint64   // barrier-episode scratch; every release shares it
	stats   MWStats    // every host's lrc-mw counters, and both classes' Migrations: hosts run one at a time

	// The cluster's freelists, shared by every host. See Host.allocPM.
	freePM   cluster.Pool[pmsg]
	freeSync cluster.Pool[mwSync]
	freeBuf  cluster.SlicePool[byte] // minipage snapshots, recycled once installed, and lrc-mw's twins
}

// New builds a Millipage cluster. The memory object, views and privileged
// view are mapped identically in every host (Section 2.4: no address
// translation between hosts is ever needed).
func New(opt Options) (*System, error) { return newSystem("dsm", opt, false) }

// NewMW builds a multi-writer LRC cluster, one application thread a host:
// a host's interval, vector clock and twins are its one thread's.
func NewMW(opt Options) (*System, error) { return newSystem("lrc-mw", opt, true) }

func newSystem(name string, opt Options, mw bool) (*System, error) {
	rt, err := cluster.New(name, opt)
	if err != nil {
		return nil, err
	}
	opt = rt.Opt
	if mw && opt.ThreadsPerHost > 1 {
		return nil, fmt.Errorf("%s: ThreadsPerHost = %d, but lrc-mw runs one thread per host", name, opt.ThreadsPerHost)
	}
	s := &System{Opt: opt, Eng: rt.Eng, Net: rt.Net, rt: rt, mw: mw, hosts: make([]*Host, opt.Hosts)}
	s.marks = hostset.NewTable(opt.Hosts, numMarks)
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
		h := &Host{sys: s, Region: region}
		var cons cluster.Consistency = scSync{h}
		if mw {
			h.vc, h.flushed, h.applyDone, cons = make([]uint64, opt.Hosts), make([]uint64, opt.Hosts), sim.NewEvent(s.Eng), h
		}
		s.hosts[i] = h
		h.Host = rt.NewHost(as, h, cons)
	}
	s.mpt = core.NewMPT(s.Layout, opt.Grain, opt.ChunkLevel)
	return s, nil
}

// Run starts ThreadsPerHost application threads on every host, each
// executing body, and drives the simulation until all of them finish. A
// System runs one application; the run-twice guard is the Runtime's.
func (s *System) Run(body func(*Thread)) error {
	if body == nil {
		return fmt.Errorf("%s: nil thread body", s.rt.Name)
	}
	return s.rt.Run(func(ct *cluster.Thread) func() {
		t := &Thread{Thread: ct, host: s.hosts[ct.Host()]}
		ct.SetSelf(t)
		s.threads = append(s.threads, t)
		return func() { body(t) }
	})
}

// Runtime returns the cluster substrate.
func (s *System) Runtime() *cluster.Runtime { return s.rt }

// Host returns host i.
func (s *System) Host(i int) *Host { return s.hosts[i] }

// NumHosts returns the cluster size.
func (s *System) NumHosts() int { return len(s.hosts) }

// Threads returns the application threads after Run (for statistics).
func (s *System) Threads() []*Thread { return s.threads }

// Elapsed returns the virtual time at which the simulation stopped — the
// parallel execution time of the application.
func (s *System) Elapsed() sim.Duration { return s.rt.Elapsed() }

// HomeOf returns minipage id's home before any move: Options.HomeOf's
// answer (cluster.New defaults it).
func (s *System) HomeOf(id int) int { return s.Opt.HomeOf(id, s.Opt.Hosts) }

// checkHomes panics as misuse unless HomeOf homes each of the minipage
// ids [lo, hi) on a host. The allocators call it as they open them, so a
// placement outside the cluster fails at the Malloc that first asks it,
// not as an index out of range under a later send.
func (s *System) checkHomes(lo, hi int) {
	for id, n := lo, s.Opt.Hosts; id < hi; id++ {
		if home := s.HomeOf(id); home < 0 || home >= n {
			s.rt.Misuse(cluster.Coordinator, "HomeOf(%d, %d) = %d is not a host", id, n, home)
		}
	}
}

// MPT exposes the minipage table (for statistics and tests).
func (s *System) MPT() *core.MPT { return s.mpt }

// ManagerStatsTotal sums the SC directory counters over every host.
func (s *System) ManagerStatsTotal() (tot ManagerStats) {
	for i := 0; i < s.NumHosts(); i++ {
		st := &s.Host(i).Stats
		tot = ManagerStats{tot.ReadReqs + st.ReadReqs, tot.WriteReqs + st.WriteReqs, tot.Invalidations + st.Invalidations,
			tot.CompetingRequests + st.CompetingRequests, tot.Allocs + st.Allocs, tot.Pushes + st.Pushes, tot.ExclusiveReads + st.ExclusiveReads}
	}
	return tot
}

// MWStats returns the cluster's lrc-mw counters.
func (s *System) MWStats() MWStats { return s.stats }

// Totals reports the run's protocol counters: the kernel's, the MPT's
// Table-2 columns, and the class's invalidations — the directory's, or
// the minipages write notices made inaccessible.
func (s *System) Totals() cluster.Totals {
	ms, t := s.ManagerStatsTotal(), s.rt.Totals()
	t.Invalidations, t.CompetingRequests, t.ExclusiveReads = ms.Invalidations, ms.CompetingRequests, ms.ExclusiveReads
	if s.mw {
		t.Invalidations = s.stats.Invalidations
	}
	t.Minipages = s.mpt.NumMinipages()
	t.ViewsUsed = s.mpt.ViewsUsed()
	t.BytesAllocated = s.mpt.BytesAllocated()
	return t
}
