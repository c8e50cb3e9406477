//go:build invariants

package dsm

import (
	"testing"

	"millipage/internal/check"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// headerBalance returns the pooled headers somebody still owns (made and
// not on a freelist, which the pools count under -tags invariants only,
// hence the build tag) and the ones the protocol has parked
// where it will find them again: directory queues, writes waiting for
// their invalidations, requests waiting for a DIR_INIT, reply headers
// waiting for their data message. With every thread finished and the
// wire quiet the two must agree — a header owned but parked nowhere was
// dropped by some exit that forgot to recycle it.
func headerBalance(s *System) (owned, parked int) {
	for _, pool := range s.pools {
		owned += pool.freePM.Live()
	}
	for _, mg := range s.mgrs {
		for _, e := range mg.dir {
			if e == nil {
				continue
			}
			parked += e.queue.Len()
			if e.pendingWrite != nil {
				parked++
			}
		}
		for _, held := range mg.waitInit { //detlint:ok summing lengths
			parked += len(held)
		}
	}
	for i := 0; i < s.NumHosts(); i++ {
		for _, hdr := range s.Host(i).pendingHdr {
			if hdr != nil {
				parked++
			}
		}
	}
	return owned, parked
}

// TestChaosHeaderPoolBalances runs the DRF oracle workload under each
// fault schedule and both directory placements, lets the wire settle,
// and requires that every pooled header was recycled on whatever path
// ended it — duplicate requests dropped at the home, late and duplicate
// replies dropped at the requester, retries answered twice — and none
// twice: the second half is the -tags invariants build's to catch, the
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
	for _, mgmt := range []Management{Central, HomeBased} {
		for _, pl := range plans {
			t.Run(mgmt.String()+"/"+pl.name, func(t *testing.T) {
				plan := pl.plan
				plan.Seed = 17
				s := newSys(t, Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8, Seed: 5,
					Management: mgmt, Faults: &plan})
				s.Eng.At(sim.Time(20*sim.Second), s.Eng.Stop) // watchdog
				d := &check.DRF{Hosts: hosts, Rounds: 3, LockReps: 4}
				done := 0
				err := run(s, func(th *Thread) {
					d.Body(th)
					// Outlast every retransmission and retry timer, then
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

// TestParShardPoolsStayBalanced: on the parallel engine every host has a
// freelist of its own, and a header recycled where it ends is lost to the
// shard that made it. A fault is two messages to the home (request, ack)
// and one back to the requester (the reply header), so shipping all three
// in pooled headers drains requesters into homes at one header — and one
// heap allocation — per remote fault; the request travels lent instead
// (see request). Pool.Live is made minus parked here: a shard that keeps
// making headers it never gets back counts up, the one hoarding them
// counts down, and a balanced protocol leaves every shard near zero
// however long it runs.
func TestParShardPoolsStayBalanced(t *testing.T) {
	const hosts, rounds = 4, 400
	for _, mgmt := range []Management{Central, HomeBased} {
		t.Run(mgmt.String(), func(t *testing.T) {
			s := newSys(t, Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8, Seed: 3,
				Management: mgmt, Engine: "par", ParWorkers: 2})
			var cells [hosts]uint64
			err := run(s, func(th *Thread) {
				me := th.Host()
				cells[me] = th.Malloc(64)
				th.WriteU32(cells[me], 0)
				th.Barrier()
				for i := 0; i < rounds; i++ {
					// A write fault with invalidations on my neighbour's
					// cell, read faults and upgrades on everyone's.
					next := cells[(me+1)%hosts]
					th.WriteU32(next, th.ReadU32(next)+1)
					th.Barrier()
					var sum uint32
					for _, c := range cells {
						sum += th.ReadU32(c)
					}
					if want := uint32(hosts * (i + 1)); sum != want {
						t.Errorf("host %d round %d: cells sum to %d, want %d", me, i, sum, want)
					}
					th.Barrier()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, pool := range s.pools {
				if live := pool.freePM.Live(); live < -hosts || live > hosts {
					t.Errorf("shard %d made %d more headers than it holds after %d rounds: headers drift between shards",
						i, live, rounds)
				}
			}
		})
	}
}
