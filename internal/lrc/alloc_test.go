package lrc

import (
	"testing"

	"millipage/internal/cluster"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// mwArmedAllocsPerOp runs op on two lrc-mw hosts in lockstep (op must
// end in a rendezvous of its own) under a fault plan that arms the
// reliability layer but never fires — one partition, in the far future —
// and returns host 0's steady-state heap allocations per call. The
// simulator runs one goroutine at a time, so that is the whole cluster's
// cost of one round.
func mwArmedAllocsPerOp(t *testing.T, op func(th *MWThread, cells [2]uint64, i int)) float64 {
	t.Helper()
	far := sim.Time(1 << 60)
	plan := &faultnet.Plan{Partitions: []faultnet.Partition{{A: 0b01, B: 0b10, From: far, Until: far + 1}}}
	s, err := NewMW(cluster.Options{Hosts: 2, SharedSize: 1 << 18, Views: 8, Seed: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Net.FaultsEnabled() {
		t.Fatal("fault plan did not arm")
	}
	const warmup, measured = 300, 1000
	var cells [2]uint64
	avg := -1.0
	err = runMW(s, func(th *MWThread) {
		cells[th.Host()] = th.Malloc(64) // each host is home to its own cell
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
	if err != nil {
		t.Fatal(err)
	}
	return avg
}

// TestMWArmedFaultPingPongAllocFree: with a fault plan armed, each host
// writing the other's minipage every round — a twin, a diff flushed to
// the home and acked, a write notice through the coordinator, an
// invalidation and a home fetch on the next read — allocates nothing
// once the pools and arenas are warm: headers, twins and fetched bytes
// come from the same freelists as on the clean wire, diff encodings lie
// in the host's reused scratch and notice lists in the epoch arenas,
// which have reached their working size after two barriers.
func TestMWArmedFaultPingPongAllocFree(t *testing.T) {
	avg := mwArmedAllocsPerOp(t, func(th *MWThread, cells [2]uint64, i int) {
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
	avg := mwArmedAllocsPerOp(t, func(th *MWThread, cells [2]uint64, i int) {
		th.Lock(1)
		th.WriteU32(cells[0], th.ReadU32(cells[0])+1)
		th.Unlock(1)
		th.Barrier()
	})
	if avg != 0 {
		t.Fatalf("armed lrc-mw lock ping-pong allocates %.0f objects/round in steady state, want 0", avg)
	}
}
