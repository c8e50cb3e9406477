package dsm

import (
	"fmt"

	"millipage/internal/cluster"
	"millipage/internal/core"
	"millipage/internal/vm"
)

// Options configures a Millipage cluster. It is the one Options struct
// every protocol shares; cluster.New defaults and validates it.
type Options = cluster.Options

// System is one Millipage cluster: the shared cluster runtime plus the
// protocol state — the MPT, the directory and one directory shard per
// host. Host 0 is the allocation authority; every host runs the directory
// shard for the minipages Options.HomeOf homes at it: HomeMod by default,
// host 0 for all of them under HomeCentral — the paper's manager.
type System struct {
	cluster.Lifecycle[*Host, *Thread]
	Layout core.Layout

	mpt  *core.MPT  // grown only on host 0; read-only replica elsewhere
	mgrs []*manager // one directory shard per host

	// dir is the directory, one entry per minipage id in slabs of dirSlab,
	// so that growing it moves no entry. The allocation authority places
	// each entry (manager.allocLocal); after that only the minipage's home
	// shard touches it (manager.entry).
	dir [][]dirEntry

	// The cluster's freelists, shared by every host. See Host.allocPM.
	freePM  cluster.Pool[pmsg]
	freeBuf cluster.SlicePool[byte] // minipage snapshots: filled by the sender, recycled once installed
}

// New builds a cluster. The memory object, views and privileged view are
// mapped identically in every host (Section 2.4: no address translation
// between hosts is ever needed).
func New(opt Options) (*System, error) {
	s := &System{}
	err := s.Init("dsm", opt, cluster.Traits{MultiThreaded: true},
		func(ct *cluster.Thread, h *Host) *Thread { return &Thread{Thread: ct, host: h} })
	if err != nil {
		return nil, err
	}
	opt = s.Opt
	if s.Layout, err = core.NewLayout(opt.SharedSize, opt.Views); err != nil {
		return nil, err
	}

	frames := vm.NewFramePool()
	for i := 0; i < opt.Hosts; i++ {
		as := vm.NewAddressSpace()
		region, err := core.NewRegion(s.Layout, as, frames)
		if err != nil {
			return nil, fmt.Errorf("dsm: host %d: %w", i, err)
		}
		h := &Host{sys: s, Region: region}
		h.Host = s.AddHost(as, h)
	}
	s.mpt = core.NewMPT(s.Layout, opt.Grain, opt.ChunkLevel)
	for i := 0; i < opt.Hosts; i++ {
		s.mgrs = append(s.mgrs, &manager{sys: s, me: i})
	}
	return s, nil
}

// Manager returns host 0's manager state (directory, MPT, counters).
// Under HomeCentral it holds every directory entry.
func (s *System) Manager() *manager { return s.mgrs[managerHost] }

// ManagerAt returns host i's directory shard.
func (s *System) ManagerAt(i int) *manager { return s.mgrs[i] }

// ManagerStatsTotal sums the protocol counters over every directory
// shard. Under HomeCentral it equals Manager().Stats.
func (s *System) ManagerStatsTotal() ManagerStats {
	var tot ManagerStats
	for _, mg := range s.mgrs {
		tot.ReadReqs += mg.Stats.ReadReqs
		tot.WriteReqs += mg.Stats.WriteReqs
		tot.Invalidations += mg.Stats.Invalidations
		tot.CompetingRequests += mg.Stats.CompetingRequests
		tot.Allocs += mg.Stats.Allocs
		tot.Pushes += mg.Stats.Pushes
	}
	return tot
}

// Totals sums the protocol counters over every directory shard, with the
// MPT's footprint.
func (s *System) Totals() cluster.Totals {
	ms, t := s.ManagerStatsTotal(), s.Runtime().Totals()
	t.Invalidations = ms.Invalidations
	t.CompetingRequests = ms.CompetingRequests
	t.Minipages = s.mpt.NumMinipages()
	t.ViewsUsed = s.mpt.ViewsUsed()
	t.BytesAllocated = s.mpt.BytesAllocated()
	return t
}
