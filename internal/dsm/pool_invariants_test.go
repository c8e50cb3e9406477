//go:build invariants

package dsm

import (
	"fmt"
	"strings"
	"testing"

	"millipage/internal/check"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// headerBalance returns the pooled headers somebody still owns (made and
// not on the freelist, which the pool counts under -tags invariants only,
// hence the build tag) and the ones the protocol has parked where it will
// find them again: directory and lock queues and barrier collections (a
// reply header rides with its bytes, so none waits for them). With every
// thread finished and the wire quiet the two must agree — a header owned
// but parked nowhere was dropped by some exit that forgot to recycle it.
func headerBalance(s *System) (owned, parked int) {
	owned = s.freePM.Live()
	for _, slab := range s.dir {
		for i := range slab {
			parked += queued(&slab[i].queue)
		}
	}
	for _, l := range s.svc.locks.locks {
		parked += queued(&l.queue)
	}
	for i := 0; i < s.NumHosts(); i++ {
		parked += len(s.Host(i).got)
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
	}{{"central", HomeCentral}, {"home-based", HomeMod}} {
		for _, pl := range plans {
			t.Run(mgmt.name+"/"+pl.name, func(t *testing.T) {
				plan := pl.plan
				plan.Seed = 17
				s := newSys(t, New, Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8, Seed: 5,
					HomeOf: mgmt.homeOf, Faults: &plan})
				s.Eng.At(sim.Time(20*sim.Second), s.Eng.Stop) // watchdog
				d := &check.DRF{Hosts: hosts, Rounds: 3, LockReps: 4}
				run(t, s, func(th *Thread) {
					d.Body(th)
					// Outlast every retransmission timer, then
					// end on a rendezvous so nothing but its own (consumed)
					// messages is in flight when the last thread leaves.
					th.Compute(sim.Second)
					th.Barrier()
				})
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

// TestChaosMWSyncRecordsBalance: every piggyback record lrc-mw hung on a
// barrier arrival, lock request or unlock is back on its freelist once
// the threads have finished — an unlock's recycled by the coordinator's
// log, the others by the acquire that consumed the answer — on a clean
// wire and a drop-heavy one. (The pools count what they make only under
// -tags invariants, hence the build tag.)
func TestChaosMWSyncRecordsBalance(t *testing.T) {
	const hosts = 4
	for name, plan := range map[string]*faultnet.Plan{"clean": nil, "drop-heavy": {Seed: 17, Drop: 0.25, Dup: 0.15}} {
		t.Run(name, func(t *testing.T) {
			s := newSys(t, NewMW, Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8, Seed: 5, Faults: plan})
			d := &check.DRF{Hosts: hosts, Rounds: 3, LockReps: 4}
			run(t, s, func(th *Thread) {
				d.Body(th)
				th.Compute(sim.Second) // outlast every retransmission
				th.Barrier()
			})
			if err := d.Err(); err != nil {
				t.Fatal(err)
			}
			if live := s.freeSync.Live(); live != 0 {
				t.Fatalf("%d piggyback records are still owned after the run (recycled twice, if negative)", live)
			}
		})
	}
}

// TestMWArenaPoison: a notice epoch's arena is poisoned when the barrier
// after the next resets it, so a notice that outlived its two-barrier
// retention names no minipage, and a write through it is caught by the
// first release into the reset arena.
func TestMWArenaPoison(t *testing.T) {
	s := newSys(t, NewMW, Options{Hosts: 1, SharedSize: 1 << 18, Views: 8})
	caught := ""
	run(t, s, func(th *Thread) {
		h := th.host
		va := th.Malloc(64)
		th.WriteU32(va, 7)
		n := th.release()
		for i := 0; i < 2; i++ {
			h.newEpoch() // the second resets the arena the notice is in
		}
		if n.MPs[0] >= 0 {
			t.Errorf("a reset notice still names minipage %d", n.MPs[0])
		}
		n.MPs[0] = 1 // the write through the stale alias
		th.WriteU32(va, 8)
		defer func() { caught = fmt.Sprint(recover()) }()
		th.release()
	})
	if !strings.Contains(caught, "written after it was recycled") {
		t.Fatalf("release into an arena written through a stale alias: panic %q", caught)
	}
}
