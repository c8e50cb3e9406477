package dsm

import (
	"testing"

	"millipage/internal/cluster"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
	"millipage/internal/viewsvc"
)

// failoverWatchdog bounds a replicated run's virtual time.
const failoverWatchdog = 10 * sim.Second

func newReplSys(t *testing.T, opt Options) *System {
	t.Helper()
	opt.HomeOf = cluster.HomeMod
	opt.Replication = true
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReplicationOptionValidation(t *testing.T) {
	if _, err := New(Options{Hosts: 2, SharedSize: 1 << 12, Replication: true}); err == nil {
		t.Fatal("Replication of a single-home directory was accepted")
	}
}

// TestReplicationCleanRun: with replication on and no faults, every
// workload result is unchanged, every host still serves its native
// shard, and directory effects were mirror-gated (mirrors flowed).
func TestReplicationCleanRun(t *testing.T) {
	s := newReplSys(t, Options{Hosts: 3, SharedSize: 1 << 16, Views: 4})
	rt := s.Runtime()
	rt.Eng.At(sim.Time(failoverWatchdog), rt.Eng.Stop)
	var vas [3]uint64
	var got [3]uint32
	done := 0
	err := run(s, func(th *Thread) {
		if th.Host() == 0 {
			for i := range vas {
				vas[i] = th.Malloc(128) // minipage i, homed at host i
				th.WriteU32(vas[i], uint32(100*(i+1)))
			}
		}
		th.Barrier()
		var sum uint32
		for i := range vas {
			sum += th.ReadU32(vas[i])
		}
		got[th.Host()] = sum
		th.Barrier()
		// A write fault per host exercises the invalidate path too.
		th.WriteU32(vas[th.Host()]+64, uint32(th.Host()))
		th.Barrier()
		done++
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Fatalf("watchdog: %d of 3 threads finished (stalled clean run)", done)
	}
	for h, g := range got {
		if g != 600 {
			t.Fatalf("host %d read sum %d, want 600", h, g)
		}
	}
	var mirrors uint64
	for i := 0; i < 3; i++ {
		if !s.Serving(i, i) {
			t.Fatalf("host %d no longer serves its native shard with no faults", i)
		}
		mirrors += s.ReplStatsAt(i).MirrorsSent
		if st := s.ReplStatsAt(i); st.Promotions != 0 || st.Demotions != 0 {
			t.Fatalf("host %d saw view churn with no faults: %+v", i, st)
		}
	}
	if mirrors == 0 {
		t.Fatal("no directory mutation was mirrored: effects are not mirror-gated")
	}
}

// TestReplicationFailoverMidBurst is the tentpole end-to-end proof: the
// primary of a hot shard is crashed mid-burst, the synced backup
// promotes, and a lock-guarded increment burst against minipages homed
// at the dead host completes exactly-once — long before the crashed
// host restarts.
func TestReplicationFailoverMidBurst(t *testing.T) {
	const (
		hosts    = 4
		victim   = 2
		incsEach = 6
		crashAt  = 2 * sim.Millisecond
		restart  = 2 * sim.Second // far beyond the burst: completion proves no stall
	)
	plan := &faultnet.Plan{
		Seed:    5,
		Crashes: []faultnet.Crash{{Host: victim, At: sim.Time(crashAt), RestartAt: sim.Time(restart)}},
	}
	s := newReplSys(t, Options{Hosts: hosts, SharedSize: 1 << 16, Views: 4, Seed: 3, Faults: plan})
	rt := s.Runtime()
	rt.Eng.At(sim.Time(failoverWatchdog), rt.Eng.Stop)

	var vas [hosts]uint64
	var burstEnd [hosts]sim.Time
	done := 0
	err := run(s, func(th *Thread) {
		if th.Host() == 0 {
			for i := range vas {
				vas[i] = th.Malloc(128) // minipage i, homed at host i
				th.WriteU32(vas[i], 0)
			}
		}
		th.Barrier() // pre-crash rendezvous: everyone, victim included
		if th.Host() == victim {
			done++
			return // the victim sits out; its host crashes at 2ms
		}
		// Let the crash land and the view service promote (dead after
		// ~1.2ms of silence, ticked every 0.5ms), then hammer the dead
		// host's shard.
		th.Compute(sim.Duration(4 * sim.Millisecond))
		for i := 0; i < incsEach; i++ {
			th.Lock(0)
			v := th.ReadU32(vas[victim])
			th.WriteU32(vas[victim], v+1)
			th.Unlock(0)
		}
		burstEnd[th.Host()] = th.Now()
		done++
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != hosts {
		t.Fatalf("watchdog: %d of %d threads finished (stalled failover)", done, hosts)
	}

	// Exactly-once: the lock-guarded counter saw every increment once.
	want := uint32((hosts - 1) * incsEach)
	if got := replReadU32(t, s, vas[victim]); got != want {
		t.Fatalf("counter = %d, want %d (lost or duplicated increments across the view change)", got, want)
	}

	// The burst finished long before the victim's restart: no stall.
	for h, end := range burstEnd {
		if h == victim || vas[h] == 0 {
			continue
		}
		if end == 0 || end >= sim.Time(restart) {
			t.Fatalf("host %d burst ended at %v — stalled until the victim's restart (%v)", h, end, sim.Time(restart))
		}
	}

	// The view service moved the victim's shard to a survivor. (The dead
	// host's own serving flag is stale by design while it is isolated —
	// it demotes when the first post-restart view update or Nak reaches
	// it.)
	v := s.ViewOf(victim)
	if v.Primary == victim || v.Num == 1 {
		t.Fatalf("shard %d still at %+v after its primary died", victim, v)
	}
	if !s.Serving(v.Primary, victim) {
		t.Fatalf("new primary %d of shard %d is not serving it", v.Primary, victim)
	}
	var promos uint64
	for i := 0; i < hosts; i++ {
		promos += s.ReplStatsAt(i).Promotions
	}
	if promos == 0 {
		t.Fatal("no host recorded a promotion")
	}
}

// replReadU32 reads a shared word post-run through the privileged view
// of the minipage's current owner (per the serving primary's directory).
func replReadU32(t *testing.T, s *System, va uint64) uint32 {
	t.Helper()
	mp, ok := s.mpt.Lookup(va)
	if !ok {
		t.Fatalf("no minipage backs %#x", va)
	}
	shard := s.homeOf(mp.ID)
	for i := 0; i < s.NumHosts(); i++ {
		rp := s.replAt(i)
		if _, serving := rp.serving[shard]; !serving {
			continue
		}
		e := s.mgrs[i].entryOrNil(mp.ID)
		if e == nil {
			t.Fatalf("serving host %d has no entry for minipage %d", i, mp.ID)
		}
		var buf [4]byte
		if err := s.Host(e.owner).Region.ReadPrivInto(va, buf[:]); err != nil {
			t.Fatal(err)
		}
		return uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
	}
	t.Fatalf("no host serves shard %d", shard)
	return 0
}

// TestPromotionReplaysDedupTable is the satellite-4 regression: before
// this layer, a manager rebuilt its done/inflight dedup tables empty on
// takeover, so a post-failover duplicate of a completed transaction was
// redone against live directory state. Promotion must replay the dedup
// records from the mirror; this fails on the old (no-merge) behavior.
func TestPromotionReplaysDedupTable(t *testing.T) {
	s := newReplSys(t, Options{Hosts: 2, SharedSize: 1 << 14, Views: 2})
	rt := s.Runtime()
	rt.Eng.At(sim.Time(failoverWatchdog), rt.Eng.Stop)
	err := run(s, func(th *Thread) {
		if th.Host() != 0 {
			return
		}
		va := th.Malloc(64) // minipage 0, shard 0: primary host 0, backup host 1
		th.WriteU32(va, 5)
		p := th.Proc()

		// The allocation seeded host 1's shadow of shard 0. Record a
		// completed transaction in the mirror, as a close record would
		// have, then promote host 1 the way a view change does.
		rp1 := s.repl[1]
		sh := rp1.shadows[0]
		if sh == nil {
			t.Fatal("backup host 1 has no shadow of shard 0")
		}
		sh.done[77] = 3
		rp1.promote(p, 0, viewsvc.View{Num: 9, Primary: 1, Backup: -1})

		mg1 := s.mgrs[1]
		if mg1.done[77] != 3 {
			t.Fatalf("promotion did not replay the dedup table: done=%d", mg1.done[77])
		}
		if mg1.inflight[77] != 0 {
			// Inflight markers must NOT replay: they cover requests the old
			// primary may only have queued, whose retries must serve fresh.
			t.Fatalf("promotion replayed an inflight admission marker: %d", mg1.inflight[77])
		}

		// A duplicate of the completed transaction arrives at the new
		// primary (the requester's retry timer fired across the view
		// change). It must be dropped, never redone.
		mp, _ := s.mpt.Lookup(va)
		e := mg1.entryOrNil(mp.ID)
		if e == nil {
			t.Fatal("promotion did not install the shadow's directory entry")
		}
		preCopy, preOwner := e.copyset, e.owner
		dup := &pmsg{Type: mWriteReq, From: 0, Addr: va, Info: mp.Info(s.Layout), TID: 77, Txn: 3}
		before := mg1.DupRequests
		mg1.dispatch(p, dup)
		if mg1.DupRequests != before+1 {
			t.Fatal("post-failover duplicate of a completed transaction was redone")
		}
		if e.copyset != preCopy || e.owner != preOwner || e.busy {
			t.Fatalf("duplicate mutated the directory: %v/%d -> %v/%d busy=%v",
				preCopy, preOwner, e.copyset, e.owner, e.busy)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplicationSoloPrimaryReleasesEffects: when the view drops a dead
// backup, the primary must flush mirror-gated effects and keep serving
// solo rather than wait for acks that can never come.
func TestReplicationSoloPrimaryReleasesEffects(t *testing.T) {
	const (
		hosts   = 2
		crashAt = 2 * sim.Millisecond
		restart = 2 * sim.Second
	)
	// Host 1 is shard 0's backup; crashing it forces host 0 solo.
	plan := &faultnet.Plan{
		Seed:    11,
		Crashes: []faultnet.Crash{{Host: 1, At: sim.Time(crashAt), RestartAt: sim.Time(restart)}},
	}
	s := newReplSys(t, Options{Hosts: hosts, SharedSize: 1 << 14, Views: 2, Seed: 7, Faults: plan})
	rt := s.Runtime()
	rt.Eng.At(sim.Time(failoverWatchdog), rt.Eng.Stop)

	var va uint64
	var end sim.Time
	done := 0
	err := run(s, func(th *Thread) {
		if th.Host() != 0 {
			done++
			return
		}
		va = th.Malloc(64)
		th.WriteU32(va, 1)
		th.Compute(sim.Duration(4 * sim.Millisecond)) // backup is dead and dropped by now
		for i := 0; i < 4; i++ {
			v := th.ReadU32(va)
			th.WriteU32(va, v+1)
		}
		end = th.Now()
		done++
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != hosts {
		t.Fatal("watchdog: solo primary stalled on its dead backup")
	}
	if end >= sim.Time(restart) {
		t.Fatalf("host 0 finished at %v — waited for the dead backup's restart", end)
	}
	if got := replReadU32(t, s, va); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if v := s.ViewOf(0); v.HasBackup() || v.Num == 1 {
		t.Fatalf("shard 0 view %+v — dead backup not dropped", v)
	}
}

// Serving reports whether host i currently serves shard k.
func (s *System) Serving(i, k int) bool {
	rp := s.replAt(i)
	if rp == nil {
		return s.homeOf(k) == i // degenerate: shard == native home
	}
	_, ok := rp.serving[k]
	return ok
}

// ReplStatsAt returns host i's replication counters (zero value when
// replication is off).
func (s *System) ReplStatsAt(i int) ReplStats {
	if rp := s.replAt(i); rp != nil {
		return rp.Stats
	}
	return ReplStats{}
}

// ViewOf returns host 0's authoritative view of shard k.
func (s *System) ViewOf(k int) viewsvc.View {
	rp := s.replAt(managerHost)
	if rp == nil || rp.svc == nil {
		return viewsvc.View{}
	}
	return rp.svc.View(k)
}
