package dsm

import (
	"fmt"
	"testing"

	"millipage/internal/faultnet"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

func TestGangFetchBringsAllMinipages(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 18, Views: 8})
	const n = 12
	vas := make([]uint64, n)
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			for i := range vas {
				vas[i] = th.Malloc(256)
				th.WriteU32(vas[i], uint32(i)*3)
			}
		}
		th.Barrier()
		if th.Host() == 1 {
			spans := make([]Span, n)
			for i := range spans {
				spans[i] = Span{Addr: vas[i], Size: 256}
			}
			th.GangFetch(spans)
			// All minipages readable locally: zero read faults follow.
			for i := range vas {
				if got := th.ReadU32(vas[i]); got != uint32(i)*3 {
					t.Errorf("minipage %d = %d", i, got)
				}
				if prot, _ := th.host.Region.ProtOf(vas[i]); prot != vm.ReadOnly {
					t.Errorf("minipage %d prot = %v after gang fetch", i, prot)
				}
			}
			if rf := th.host.AS.ReadFaults; rf != 0 {
				t.Errorf("read faults after gang fetch = %d, want 0", rf)
			}
		}
		th.Barrier()
	})
}

func TestGangFetchOverlapsLatency(t *testing.T) {
	// Fetching N minipages as a gang must be much faster than N
	// dependent faults: the requests overlap in the network and at the
	// owner.
	const n = 16
	run := func(gang bool) sim.Duration {
		s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 18, Views: 8, Seed: 3})
		vas := make([]uint64, n)
		var spent sim.Duration
		run(t, s, func(th *Thread) {
			if th.Host() == 0 {
				for i := range vas {
					vas[i] = th.Malloc(256)
					th.WriteU32(vas[i], 1)
				}
			}
			th.Barrier()
			if th.Host() == 1 {
				start := th.Now()
				if gang {
					spans := make([]Span, n)
					for i := range spans {
						spans[i] = Span{Addr: vas[i], Size: 256}
					}
					th.GangFetch(spans)
				}
				for i := range vas {
					_ = th.ReadU32(vas[i])
				}
				spent = th.Now().Sub(start)
			}
			th.Barrier()
		})
		return spent
	}
	sequential := run(false)
	gang := run(true)
	if gang >= sequential {
		t.Fatalf("gang fetch (%v) not faster than sequential faults (%v)", gang, sequential)
	}
	if gang > sequential/2 {
		t.Logf("note: gang=%v sequential=%v (expected a larger gap)", gang, sequential)
	}
}

func TestGangFetchSkipsPresent(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 18, Views: 4})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(128)
			th.WriteU32(va, 9)
		}
		th.Barrier()
		if th.Host() == 1 {
			_ = th.ReadU32(va) // already fetched
			before := th.Stats.Prefetches
			th.GangFetch([]Span{{Addr: va, Size: 128}})
			if th.Stats.Prefetches != before {
				t.Error("gang fetch re-requested a readable minipage")
			}
		}
		th.Barrier()
	})
}

func TestReportLatencyDecomposition(t *testing.T) {
	// The paper's Section 4.3.1: with busy hosts, the average fault time
	// is dominated by service-thread delay. Build a busy two-host
	// workload and check the report exposes sensible decomposition.
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 18, Views: 4, Seed: 11})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(128)
			th.WriteU32(va, 1)
		}
		th.Barrier()
		if th.Host() == 0 {
			th.Compute(30 * sim.Millisecond) // stays busy: sweeper-bound service
		} else {
			for i := 0; i < 12; i++ {
				th.WriteU32(va, th.ReadU32(va)+1)
				th.Compute(2 * sim.Millisecond)
			}
		}
		th.Barrier()
	})
	var ft sim.Duration
	var n uint64
	for _, th := range s.Threads() {
		ft += th.Stats.ReadFaultTime + th.Stats.WriteFaultTime
		n += th.Stats.ReadFaults + th.Stats.WriteFaults
	}
	if n == 0 {
		t.Fatal("no faults")
	}
	avg := ft / sim.Duration(n)
	// The paper reports ~750us averages under load; the model should land
	// in the same order of magnitude (hundreds of us to ~2ms).
	if avg < 200*sim.Microsecond || avg > 3*sim.Millisecond {
		t.Fatalf("avg fault time = %v, want hundreds of us (paper: ~750us)", avg)
	}
}

// TestPrefetchSurvivesHomeCrash: under HomeMod, host 2 issues a Prefetch
// and a GangFetch of minipages homed at host 1 — which also holds their
// only copies — around host 1's crash at 2ms (issued up to 150us before
// it, they are in flight when it lands); it restarts at 8ms. The reliable
// transport carries both across the outage: they must complete after the
// restart, with the home's bytes, and leave no read fault behind.
func TestPrefetchSurvivesHomeCrash(t *testing.T) {
	const (
		home    = 1
		crashAt = 2 * sim.Millisecond
		restart = 8 * sim.Millisecond
	)
	for _, issue := range []sim.Duration{1850 * sim.Microsecond, 1950 * sim.Microsecond, crashAt, 2500 * sim.Microsecond} {
		t.Run(fmt.Sprint(issue), func(t *testing.T) {
			plan := &faultnet.Plan{Seed: 5, Crashes: []faultnet.Crash{
				{Host: home, At: sim.Time(crashAt), RestartAt: sim.Time(restart)},
			}}
			s := newSys(t, New, Options{Hosts: 3, SharedSize: 1 << 16, Views: 8, HomeOf: HomeMod, Faults: plan})
			var vas []uint64 // minipages homed at host 1, allocated and written there
			var gangDone, prefetchDone sim.Time
			run(t, s, func(th *Thread) {
				if th.Host() == home {
					vas = homedAt(s, th, home, 3)
				}
				th.Barrier()
				if th.Host() != 2 {
					return
				}
				if th.Now() > sim.Time(issue) {
					t.Fatalf("setup ran until %v, past the issue time %v", th.Now(), issue)
				}
				th.Compute(sim.Time(issue).Sub(th.Now()))
				th.Prefetch(vas[0], 64)
				th.GangFetch([]Span{{Addr: vas[1], Size: 64}, {Addr: vas[2], Size: 64}})
				gangDone = th.Now()
				for prot, _ := th.host.Region.ProtOf(vas[0]); prot < vm.ReadOnly; prot, _ = th.host.Region.ProtOf(vas[0]) {
					if th.Now() > sim.Time(sim.Second) {
						t.Fatal("prefetch never completed")
					}
					th.Compute(100 * sim.Microsecond)
				}
				prefetchDone = th.Now()
				for i, va := range vas {
					if got, want := th.ReadU32(va), uint32(i+1)*7; got != want {
						t.Errorf("minipage %d reads %d, want the home's %d", i, got, want)
					}
				}
				if rf := th.host.AS.ReadFaults; rf != 0 {
					t.Errorf("%d read faults after the prefetches completed, want 0", rf)
				}
			})
			if gangDone < sim.Time(restart) || prefetchDone < sim.Time(restart) {
				t.Fatalf("gang done at %v, prefetch by %v: before the home's restart at %v", gangDone, prefetchDone, restart)
			}
			t.Logf("gang done at %v, prefetch by %v", gangDone, prefetchDone)
		})
	}
}
