package lrc

import (
	"millipage/internal/cluster"
	"millipage/internal/core"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// Options configures an LRC cluster: the Options struct every protocol
// shares. Sharing is minipage-grain and every minipage's home is its
// allocating host, so Grain, HomeOf and Replication are rejected.
type Options = cluster.Options

// base is what the single-writer and multi-writer realizations share:
// the lifecycle, the MultiView layout, the minipage table host 0 owns,
// and the home map (every minipage's home is its allocating host). H and
// T are the realization's host and thread types.
type base[H cluster.HostHandler, T cluster.AppThread] struct {
	cluster.Lifecycle[H, T]
	Layout core.Layout

	mpt   *core.MPT
	homes []int // minipage id -> home host
}

// init builds the runtime, the layout, the minipage table and one
// MultiView region per host. addHost wraps each region in the
// realization's host type and attaches it with AddHost.
func (b *base[H, T]) init(name string, opt Options, wrap func(*cluster.Thread, H) T,
	addHost func(as *vm.AddressSpace, region *core.Region)) error {
	err := b.Init(name, opt, cluster.Traits{}, wrap)
	if err != nil {
		return err
	}
	if b.Layout, err = core.NewLayout(b.Opt.SharedSize, b.Opt.Views); err != nil {
		return err
	}
	b.mpt = core.NewMPT(b.Layout, core.GrainMinipage, b.Opt.ChunkLevel)
	frames := vm.NewFramePool()
	for i := 0; i < b.Opt.Hosts; i++ {
		as := vm.NewAddressSpace()
		region, err := core.NewRegion(b.Layout, as, frames)
		if err != nil {
			return err
		}
		addHost(as, region)
	}
	return nil
}

// MPT exposes the minipage table.
func (b *base[H, T]) MPT() *core.MPT { return b.mpt }

// alloc carves size bytes out of the minipage table on behalf of host
// from, which becomes the home of every minipage the allocation opens.
// It is both realizations' cluster.HostHandler Alloc: it runs only on
// host 0, the allocation authority, and charges p the bookkeeping.
func (b *base[H, T]) alloc(p *sim.Proc, from, size int) (cluster.Allocation, error) {
	p.Sleep(b.Opt.Costs.MallocBase)
	mp, va, err := b.mpt.Alloc(size)
	if err != nil {
		return cluster.Allocation{}, err
	}
	for id := len(b.homes); id < b.mpt.NumMinipages(); id++ {
		b.homes = append(b.homes, from)
	}
	return cluster.Allocation{VA: va, Info: mp.Info(b.Layout), Home: b.homes[mp.ID]}, nil
}

// describe gives the trace a header's minipage, address and home from
// its info (zero for lrc-mw's diff requests and replies, which name
// theirs by id).
func (b *base[H, T]) describe(info core.Info) (int, uint64, int) {
	if info.Size == 0 {
		return -1, 0, -1
	}
	home := -1
	if info.ID < len(b.homes) {
		home = b.homes[info.ID]
	}
	return info.ID, info.Base, home
}

// footprint starts a Totals with what both realizations report alike:
// the kernel's counters and the minipage table's Table-2 columns.
func (b *base[H, T]) footprint() cluster.Totals {
	t := b.Runtime().Totals()
	t.Minipages = b.mpt.NumMinipages()
	t.ViewsUsed = b.mpt.ViewsUsed()
	t.BytesAllocated = b.mpt.BytesAllocated()
	return t
}
