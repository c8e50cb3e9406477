package dsm

import (
	"testing"

	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// armedPlan keeps the transport's reliability layer switched on without
// ever firing a fault: one partition, in the far future.
func armedPlan() *faultnet.Plan {
	far := sim.Time(1 << 60)
	return &faultnet.Plan{Partitions: []faultnet.Partition{{A: 0b01, B: 0b10, From: far, Until: far + 1}}}
}

// armedAllocsPerOp is allocsPerOp with the plan armed.
func armedAllocsPerOp(t *testing.T, mk func(string, Options) (*System, error), op func(th *Thread, cells []uint64, i int)) float64 {
	t.Helper()
	return allocsPerOp(t, mk, Options{Faults: armedPlan()}, op)
}

// allocsPerOp runs op on opt.Hosts hosts (two if unset) of the cluster mk
// builds, in lockstep (op must end in a rendezvous of its own), and
// returns host 0's steady-state heap allocations per call, process-wide —
// the simulator runs one goroutine at a time, so that is the whole
// cluster's cost of one round. Host 0 allocates one cell per host, in host
// order, so under the default placement each host is home to its own.
func allocsPerOp(t *testing.T, mk func(string, Options) (*System, error), opt Options, op func(th *Thread, cells []uint64, i int)) float64 {
	t.Helper()
	opt.Hosts = max(opt.Hosts, 2)
	opt.SharedSize, opt.Views, opt.Seed = 1<<16, 4, 1
	s := newSys(t, mk, opt)
	if s.Net.FaultsEnabled() != (opt.Faults != nil) {
		t.Fatal("fault plan did not arm")
	}
	const warmup, measured = 300, 1000
	cells := make([]uint64, opt.Hosts)
	avg := -1.0
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			for h := range cells {
				cells[h] = th.Malloc(64)
			}
			th.WriteU32(cells[0], 0)
		}
		th.Barrier()
		i := 0
		round := func() { op(th, cells, i); i++ }
		for i < warmup {
			round()
		}
		if th.Host() == 0 {
			avg = testing.AllocsPerRun(measured, round) // one extra warm-up call, then measured
		} else {
			for i < warmup+1+measured {
				round()
			}
		}
	})
	return avg
}

// TestArmedFaultPingPongAllocFree: with a fault plan armed, a minipage
// bouncing between two hosts — a write fault with an invalidation on one
// side, a read fault then an upgrade on the other, every frame logged for
// retransmission — allocates nothing once the pools are warm. Headers and
// snapshot buffers come from freelists; there is no second, allocating
// path.
func TestArmedFaultPingPongAllocFree(t *testing.T) {
	avg := armedAllocsPerOp(t, New, func(th *Thread, cells []uint64, i int) {
		if th.Host() == 0 {
			th.WriteU32(cells[0], uint32(i))
		}
		th.Barrier()
		if th.Host() == 1 {
			th.WriteU32(cells[0], th.ReadU32(cells[0])+1)
		}
		th.Barrier()
	})
	if avg != 0 {
		t.Fatalf("armed fault ping-pong allocates %.0f objects/round in steady state, want 0", avg)
	}
}

// TestReceiveAllocFree: read faults on two hosts, then a write fault that
// invalidates both copies — the manager's requests, the forwards turned
// around as header and data, the data installed, the two invalidations
// queued before the fan-out's tail, their replies, the grant and the acks,
// all served in engine context where they do not decline — allocate
// nothing once the pools are warm, on a clean wire and with a plan armed.
func TestReceiveAllocFree(t *testing.T) {
	round := func(th *Thread, cells []uint64, i int) {
		if th.Host() != 0 {
			th.ReadU32(cells[0])
		}
		th.Barrier()
		if th.Host() == 0 {
			th.WriteU32(cells[0], uint32(i))
		}
		th.Barrier()
	}
	for _, plan := range []*faultnet.Plan{nil, armedPlan()} {
		if avg := allocsPerOp(t, New, Options{Hosts: 3, Faults: plan}, round); avg != 0 {
			t.Fatalf("armed=%v: a read and write fault round allocates %.1f objects in steady state, want 0", plan != nil, avg)
		}
	}
}

// TestArmedLockPingPongAllocFree is the same gate for the synchronization
// path, on a clean wire and with a plan armed: a lock handed back and
// forth, guarding a counter that migrates with it — the lock request
// turned into its grant as the tail, the unlock and the barrier's arrivals
// in engine context, each read under the lock served exclusive, each
// write raising the copy in place (the marks live in slabs allocLocal
// grew).
func TestArmedLockPingPongAllocFree(t *testing.T) {
	round := func(th *Thread, cells []uint64, i int) {
		th.Lock(1)
		th.WriteU32(cells[0], th.ReadU32(cells[0])+1)
		th.Unlock(1)
		th.Barrier()
	}
	for _, plan := range []*faultnet.Plan{nil, armedPlan()} {
		if avg := allocsPerOp(t, New, Options{Faults: plan}, round); avg != 0 {
			t.Fatalf("armed=%v: lock ping-pong allocates %.0f objects/round in steady state, want 0", plan != nil, avg)
		}
	}
}

// TestArmedPrefetchCostsWhatACleanOneDoes: a prefetch issued with a fault
// plan armed, to a home other than host 0 (HomeMod), takes the path it
// takes on a clean wire — the reliable transport is the only recovery
// layer — so a round allocates what it does there: the prefetch's
// rendezvous, and nothing for having been armed.
func TestArmedPrefetchCostsWhatACleanOneDoes(t *testing.T) {
	round := func(th *Thread, cells []uint64, i int) {
		if th.Host() == 0 {
			th.WriteU32(cells[0], uint32(i)) // takes host 1's copy away
		}
		th.Barrier()
		if th.Host() == 1 {
			th.Prefetch(cells[0], 4)
			th.Compute(20 * sim.Millisecond) // long past the prefetch's round trip
			if got := th.ReadU32(cells[0]); got != uint32(i) {
				t.Errorf("round %d: prefetched cell reads %d", i, got)
			}
		}
		th.Barrier()
	}
	home := Options{HomeOf: HomeMod}
	clean := allocsPerOp(t, New, home, round)
	home.Faults = armedPlan()
	if armed := allocsPerOp(t, New, home, round); armed != clean {
		t.Fatalf("an armed prefetch round allocates %.0f objects, a clean one %.0f", armed, clean)
	}
}

// TestMWArmedFaultPingPongAllocFree: with a fault plan armed, each lrc-mw
// host writing the other's minipage every round — a twin, a diff flushed to
// the home and acked, a write notice through the coordinator, an
// invalidation and a home fetch on the next read — allocates nothing
// once the pools and arenas are warm: headers, twins and fetched bytes
// come from the same freelists as on the clean wire, diff encodings lie
// in the host's reused scratch and notice lists in the epoch arenas,
// which have reached their working size after two barriers.
func TestMWArmedFaultPingPongAllocFree(t *testing.T) {
	avg := armedAllocsPerOp(t, NewMW, func(th *Thread, cells []uint64, i int) {
		th.WriteU32(cells[1-th.Host()], uint32(i))
		th.Barrier()
		if got := th.ReadU32(cells[th.Host()]); got != uint32(i) {
			t.Errorf("round %d host %d: read %d", i, th.Host(), got)
		}
		th.Barrier()
	})
	if avg != 0 {
		t.Fatalf("armed lrc-mw fault ping-pong allocates %.0f objects/round in steady state, want 0", avg)
	}
}

// TestMWArmedLockPingPongAllocFree is the same gate for lock hand-offs:
// every unlock closes an interval and every grant carries its notice.
func TestMWArmedLockPingPongAllocFree(t *testing.T) {
	avg := armedAllocsPerOp(t, NewMW, func(th *Thread, cells []uint64, i int) {
		th.Lock(1)
		th.WriteU32(cells[0], th.ReadU32(cells[0])+1)
		th.Unlock(1)
		th.Barrier()
	})
	if avg != 0 {
		t.Fatalf("armed lrc-mw lock ping-pong allocates %.0f objects/round in steady state, want 0", avg)
	}
}
