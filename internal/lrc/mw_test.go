package lrc

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"millipage/internal/sim"
	"millipage/internal/vm"
)

func newMWSys(t *testing.T, hosts, chunk int) *MWSystem {
	t.Helper()
	s, err := NewMW(Options{Hosts: hosts, SharedSize: 1 << 18, Views: 8, ChunkLevel: chunk, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMWSingleHostWriteRead(t *testing.T) {
	s := newMWSys(t, 1, 1)
	var got uint32
	err := runMW(s, func(th *MWThread) {
		va := th.Malloc(64)
		th.WriteU32(va, 77)
		got = th.ReadU32(va)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Fatalf("got %d", got)
	}
}

func TestMWDiffsMergeAtBarrier(t *testing.T) {
	// Two hosts write different words of the same minipage concurrently;
	// after the barrier both must observe both writes merged.
	s := newMWSys(t, 2, 1)
	var va uint64
	var got [2][2]uint32
	err := runMW(s, func(th *MWThread) {
		if th.Host() == 0 {
			va = th.Malloc(256)
		}
		th.Barrier()
		if th.Host() == 0 {
			th.WriteU32(va, 111)
		} else {
			th.WriteU32(va+128, 222)
		}
		th.Barrier()
		got[th.Host()][0] = th.ReadU32(va)
		got[th.Host()][1] = th.ReadU32(va + 128)
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 2; h++ {
		if got[h][0] != 111 || got[h][1] != 222 {
			t.Fatalf("host %d sees %v, want [111 222]", h, got[h])
		}
	}
	if s.Stats().DiffsSent == 0 {
		t.Fatal("no diffs flushed")
	}
	if s.Stats().TwinsMade < 2 {
		t.Fatalf("TwinsMade = %d, want at least one per writer", s.Stats().TwinsMade)
	}
}

func TestMWConcurrentWritersDoNotPingPong(t *testing.T) {
	// Between barriers, writers to one minipage must not invalidate each
	// other: after each host's first write fault per interval, subsequent
	// writes are local, so the write-fault count stays at one per host
	// per interval no matter how many writes land.
	s := newMWSys(t, 2, 1)
	var va uint64
	const writes = 50
	err := runMW(s, func(th *MWThread) {
		if th.Host() == 0 {
			va = th.Malloc(512)
		}
		th.Barrier()
		base := va + uint64(th.Host())*256
		for i := 0; i < writes; i++ {
			th.WriteU32(base+uint64(i%32)*4, uint32(i))
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().WriteFault > 4 {
		t.Fatalf("WriteFault = %d for %d writes by 2 hosts; concurrent writers ping-pong", s.Stats().WriteFault, 2*writes)
	}
}

func TestMWNoticeOnlyInvalidation(t *testing.T) {
	// A write notice invalidates exactly the minipages it names: a third
	// host's copy of an untouched minipage survives the barrier mapped,
	// while its copy of the written one is invalidated and lazily merged.
	s := newMWSys(t, 3, 1)
	var vaA, vaB uint64
	var gotA, gotB uint32
	var protA, protB vm.Prot
	err := runMW(s, func(th *MWThread) {
		if th.Host() == 0 {
			vaA = th.Malloc(256)
			vaB = th.Malloc(256)
			th.WriteU32(vaA, 1)
			th.WriteU32(vaB, 2)
		}
		th.Barrier()
		if th.Host() == 2 {
			// Take copies of both minipages.
			_ = th.ReadU32(vaA)
			_ = th.ReadU32(vaB)
		}
		th.Barrier()
		if th.Host() == 1 {
			th.WriteU32(vaA, 11)
		}
		th.Barrier()
		if th.Host() == 2 {
			h := s.Host(2)
			mpA, _ := s.MPT().Lookup(vaA)
			mpB, _ := s.MPT().Lookup(vaB)
			protA, _ = h.Region.ProtOf(mpA.Info(s.Layout).Base)
			protB, _ = h.Region.ProtOf(mpB.Info(s.Layout).Base)
			gotA = th.ReadU32(vaA)
			gotB = th.ReadU32(vaB)
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if protA != vm.NoAccess {
		t.Fatalf("noticed minipage A is %v at host 2 after the barrier, want NoAccess", protA)
	}
	if protB != vm.ReadOnly {
		t.Fatalf("untouched minipage B is %v at host 2 after the barrier, want ReadOnly (no invalidation)", protB)
	}
	if gotA != 11 || gotB != 2 {
		t.Fatalf("host 2 reads A=%d B=%d, want 11 2", gotA, gotB)
	}
	if s.Stats().DiffFetches == 0 {
		t.Fatal("merging the noticed minipage should go through a lazy diff fetch")
	}
}

func TestMWLazyDiffFetchNotFullFetch(t *testing.T) {
	// Re-validating an invalidated copy fetches the interval diff from
	// the writer, not the whole minipage from home.
	s := newMWSys(t, 2, 1)
	var va uint64
	var got uint32
	var fullBefore uint64
	err := runMW(s, func(th *MWThread) {
		if th.Host() == 0 {
			va = th.Malloc(256)
			th.WriteU32(va, 5)
		}
		th.Barrier()
		if th.Host() == 1 {
			_ = th.ReadU32(va) // full fetch: first copy
		}
		th.Barrier()
		if th.Host() == 0 {
			th.WriteU32(va, 6)
		}
		th.Barrier()
		if th.Host() == 1 {
			fullBefore = s.Stats().Fetches // host 1 is the only fetcher in this program
			got = th.ReadU32(va)           // invalidated: lazy diff merge
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("got %d, want 6", got)
	}
	if s.Stats().DiffFetches == 0 {
		t.Fatal("no lazy diff fetch recorded")
	}
	if s.Stats().Fetches != fullBefore {
		t.Fatalf("re-validation did a full home fetch (%d -> %d), want diff-only", fullBefore, s.Stats().Fetches)
	}
}

func TestMWLockedAccumulator(t *testing.T) {
	// The lock-guarded accumulator: write notices piggyback on the lock
	// grant, so each holder observes the previous holder's writes.
	const hosts, reps = 3, 4
	s := newMWSys(t, hosts, 1)
	var va uint64
	var got [hosts]uint32
	err := runMW(s, func(th *MWThread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
			th.WriteU32(va, 0)
		}
		th.Barrier()
		for i := 0; i < reps; i++ {
			th.Lock(7)
			th.WriteU32(va, th.ReadU32(va)+uint32(th.Host()+1))
			th.Unlock(7)
			th.Compute(50 * sim.Microsecond)
		}
		th.Barrier()
		got[th.Host()] = th.ReadU32(va)
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint32(reps * hosts * (hosts + 1) / 2)
	for h := 0; h < hosts; h++ {
		if got[h] != want {
			t.Fatalf("host %d: accumulator = %d, want %d", h, got[h], want)
		}
	}
}

func TestMWIntervalGCFallsBackToHome(t *testing.T) {
	// A copy invalidated by a notice but left untouched across enough
	// barriers outlives the writer's interval record: the lazy fetch
	// reports the interval purged and the host refetches from home —
	// still observing the correct merged value.
	s := newMWSys(t, 3, 1)
	var va uint64
	var got uint32
	err := runMW(s, func(th *MWThread) {
		if th.Host() == 0 {
			va = th.Malloc(256)
			th.WriteU32(va, 1)
		}
		th.Barrier()
		if th.Host() == 2 {
			_ = th.ReadU32(va) // copy at host 2
		}
		th.Barrier()
		if th.Host() == 1 {
			th.WriteU32(va+128, 7) // interval at host 1; notice invalidates host 2
		}
		th.Barrier()
		th.Barrier() // two more epochs: host 1 garbage-collects the interval
		th.Barrier()
		if th.Host() == 2 {
			got = th.ReadU32(va + 128)
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
	if s.Stats().IntervalsGCed == 0 {
		t.Fatal("no interval records were garbage-collected")
	}
	if s.Stats().HomeFallbacks == 0 {
		t.Fatal("expected the purged interval to force a home fetch fallback")
	}
}

func TestMWDeterminism(t *testing.T) {
	run := func() (sim.Duration, MWStats) {
		s := newMWSys(t, 4, 1)
		var va uint64
		err := runMW(s, func(th *MWThread) {
			if th.Host() == 0 {
				va = th.Malloc(1024)
			}
			th.Barrier()
			for r := 0; r < 3; r++ {
				th.WriteU32(va+uint64(th.Host())*256, uint32(r))
				th.Barrier()
				for h := 0; h < 4; h++ {
					_ = th.ReadU32(va + uint64(h)*256)
				}
				th.Barrier()
			}
			for i := 0; i < 2; i++ {
				th.Lock(1)
				th.WriteU32(va+64, th.ReadU32(va+64)+1)
				th.Unlock(1)
			}
			th.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Elapsed(), s.Stats()
	}
	e1, st1 := run()
	e2, st2 := run()
	if e1 != e2 || st1 != st2 {
		t.Fatalf("nondeterministic run: %v %+v vs %v %+v", e1, st1, e2, st2)
	}
}

// TestMWNewerThanMatchesFullScan: the coordinator's indexed selection of
// notices for a grant is, element for element, the filter over the whole
// log it replaced — for random logs (Seq rising per creator, as the
// transport's per-link order guarantees) and random requester clocks,
// including clocks staler than the log's first entry and newer than its
// last.
func TestMWNewerThanMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		hosts := 1 + rng.Intn(8)
		s := &MWSystem{logLast: make([]int, hosts)}
		for c := range s.logLast {
			s.logLast[c] = -1
		}
		seq := make([]uint64, hosts)
		for i, n := 0, rng.Intn(60); i < n; i++ {
			c := rng.Intn(hosts)
			seq[c] += 1 + uint64(rng.Intn(3))
			s.logPrev = append(s.logPrev, s.logLast[c])
			s.logLast[c] = len(s.log)
			s.log = append(s.log, mwCNotice{mwNotice: mwNotice{Creator: c, Seq: seq[c]}, VTSum: uint64(i + 1)})
		}
		vc := make([]uint64, hosts)
		for c := range vc {
			vc[c] = uint64(rng.Intn(int(seq[c]) + 3))
		}
		var want []mwCNotice
		for _, n := range s.log {
			if n.Seq > vc[n.Creator] {
				want = append(want, n)
			}
		}
		got := s.newerThan(nil, vc)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d notices, full scan gives %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].VTSum != want[i].VTSum {
				t.Fatalf("trial %d: notice %d is VTSum %d, full scan gives %d", trial, i, got[i].VTSum, want[i].VTSum)
			}
		}
	}
}

// TestMWLockHeavyRunPinned holds a whole lock-heavy run to the values
// recorded before the protocol state moved from per-interval maps and
// pooled records to generation arenas and dense per-minipage records: 4
// hosts at chunk level 4 (four cells to a minipage, so every minipage has
// several concurrent writers), 60 lock releases a host an epoch — each
// closes an interval that is then held for two barriers — over 5 epochs,
// so the arenas rotate, GC runs with work to drop and some lazy fetches
// find their interval purged. Every host owns one
// word of every cell and reads the others' under the cell's lock; the
// protocol counters, the elapsed virtual time and a hash of the memory
// every host reads back at the end must not move.
func TestMWLockHeavyRunPinned(t *testing.T) {
	const hosts, cells, epochs, locksPerEpoch = 4, 64, 5, 60
	s := newMWSys(t, hosts, 4)
	var va [cells]uint64
	var sums [hosts]uint64
	err := runMW(s, func(th *MWThread) {
		me := th.Host()
		if me == 0 {
			for c := range va {
				va[c] = th.Malloc(64)
			}
		}
		th.Barrier()
		for e := 0; e < epochs; e++ {
			for i := 0; i < locksPerEpoch; i++ {
				// Epochs 0-1 and 4 work on the first eight minipages, epochs 2-3
				// on the other eight: a copy invalidated late in epoch 1 is
				// next touched after its notices' intervals are purged.
				c := 4*((i+me)%8+8*(e/2%2)) + (i/8+me)%4
				th.Lock(c)
				var seen uint32
				for h := 0; h < hosts; h++ {
					seen += th.ReadU32(va[c] + uint64(h)*8)
				}
				th.WriteU32(va[c]+uint64(me)*8, seen+uint32(e*locksPerEpoch+i+1))
				th.Unlock(c)
				th.Compute(20 * sim.Microsecond)
			}
			th.Barrier()
		}
		h := fnv.New64a()
		var buf [64]byte
		for c := range va {
			th.Read(va[c], buf[:])
			h.Write(buf[:])
		}
		sums[me] = h.Sum64()
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	wantStats := MWStats{Fetches: 70, DiffFetches: 2066, DiffsFetched: 2560, HomeFallbacks: 22, DiffsSent: 900,
		DiffBytes: 5672, TwinsMade: 1200, WriteFault: 1200, ReadFault: 933, Invalidations: 885, Notices: 1200,
		IntervalsGCed: 960}
	const wantElapsed, wantSum = sim.Duration(156225719), uint64(0x35fd9ab15bfbde49)
	if got := s.Stats(); got != wantStats {
		t.Errorf("stats %+v, recorded %+v", got, wantStats)
	}
	if got := s.Elapsed(); got != wantElapsed {
		t.Errorf("elapsed %d, recorded %d", got, wantElapsed)
	}
	for h, sum := range sums {
		if sum != wantSum {
			t.Errorf("host %d reads back memory hashing to %#x, recorded %#x", h, sum, wantSum)
		}
	}
}
