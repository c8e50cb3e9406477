//go:build invariants

package dsm

import (
	"testing"

	"millipage/internal/check"
	"millipage/internal/cluster"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// headerBalance returns the pooled headers somebody still owns — the
// protocol's and the kernel's service headers — (made and
// not on a freelist, which the pools count under -tags invariants only,
// hence the build tag) and the ones the protocol has parked
// where it will find them again: directory queues and reply headers
// waiting for their data message. With every thread finished and the
// wire quiet the two must agree — a header owned but parked nowhere was
// dropped by some exit that forgot to recycle it.
func headerBalance(s *System) (owned, parked int) {
	owned = s.freePM.Live() + s.Runtime().LiveServiceHeaders()
	for _, slab := range s.dir {
		for i := range slab {
			parked += slab[i].queue.Len()
		}
	}
	for i := 0; i < s.NumHosts(); i++ {
		parked += s.Host(i).Parked()
	}
	return owned, parked
}

// TestChaosHeaderPoolBalances runs the DRF oracle workload under each
// fault schedule and both directory placements, lets the wire settle,
// and requires that every pooled header was recycled on whatever path
// ended it — crashes, drops and retransmitted duplicates included — and
// none twice: the second half is the -tags invariants build's to catch, the
// first shows here as a header that is owned but parked nowhere.
func TestChaosHeaderPoolBalances(t *testing.T) {
	const hosts = 4
	crashes := []faultnet.Crash{
		{Host: hosts - 1, At: sim.Time(2 * sim.Millisecond), RestartAt: sim.Time(8 * sim.Millisecond)},
		{Host: 0, At: sim.Time(15 * sim.Millisecond), RestartAt: sim.Time(22 * sim.Millisecond)},
	}
	plans := []struct {
		name string
		plan faultnet.Plan
	}{
		{"drop-heavy", faultnet.Plan{Drop: 0.25, Dup: 0.15}},
		{"reorder-heavy", faultnet.Plan{Drop: 0.05, Reorder: 0.6, Jitter: 3 * sim.Millisecond}},
		{"partition-heal", faultnet.Plan{Drop: 0.05, Partitions: []faultnet.Partition{
			{A: 0b0011, B: 0b1100, From: sim.Time(2 * sim.Millisecond), Until: sim.Time(12 * sim.Millisecond)}}}},
		{"crash-restart", faultnet.Plan{Drop: 0.02, Crashes: crashes}},
	}
	for _, mgmt := range []struct {
		name   string
		homeOf func(id, hosts int) int
	}{{"central", cluster.HomeCentral}, {"home-based", cluster.HomeMod}} {
		for _, pl := range plans {
			t.Run(mgmt.name+"/"+pl.name, func(t *testing.T) {
				plan := pl.plan
				plan.Seed = 17
				s := newSys(t, Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8, Seed: 5,
					HomeOf: mgmt.homeOf, Faults: &plan})
				s.Eng.At(sim.Time(20*sim.Second), s.Eng.Stop) // watchdog
				d := &check.DRF{Hosts: hosts, Rounds: 3, LockReps: 4}
				done := 0
				err := run(s, func(th *Thread) {
					d.Body(th)
					// Outlast every retransmission timer, then
					// end on a rendezvous so nothing but its own (consumed)
					// messages is in flight when the last thread leaves.
					th.Compute(sim.Second)
					th.Barrier()
					done++
				})
				if err != nil {
					t.Fatal(err)
				}
				if done != hosts {
					t.Fatalf("watchdog: %d of %d threads finished", done, hosts)
				}
				if err := d.Err(); err != nil {
					t.Fatal(err)
				}
				var retrans uint64
				for i := 0; i < hosts; i++ {
					retrans += s.Net.Endpoint(i).Stats().Retransmits
				}
				if retrans == 0 {
					t.Fatal("no retransmissions: the schedule never bit")
				}
				if owned, parked := headerBalance(s); owned != parked {
					t.Fatalf("%d pooled headers are owned but only %d are parked in protocol state: %d were dropped without recyclePM (or recycled twice, if negative)",
						owned, parked, owned-parked)
				}
			})
		}
	}
}
