package dsm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"millipage/internal/check"
	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/pins"
	"millipage/internal/sim"
	"millipage/internal/trace"
	"millipage/internal/twindiff"
	"millipage/internal/vm"
)

func TestMWSingleHostWriteRead(t *testing.T) {
	s := newSys(t, NewMW, Options{Hosts: 1, SharedSize: 1 << 18, Views: 8})
	var got uint32
	run(t, s, func(th *Thread) {
		va := th.Malloc(64)
		th.WriteU32(va, 77)
		got = th.ReadU32(va)
	})
	if got != 77 {
		t.Fatalf("got %d", got)
	}
}

// TestMWHomeMapsAtFirstTouch: under the default placement host 0
// allocates one minipage homed at itself and one homed at host 1. Host 1
// never fetches its own: it maps it at first touch, and holds host 0's
// write to it, flushed there at the barrier. The other it fetches.
func TestMWHomeMapsAtFirstTouch(t *testing.T) {
	s := newSys(t, NewMW, Options{Hosts: 2, SharedSize: 1 << 18, Views: 8})
	var va, got [2]uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va[0], va[1] = th.Malloc(64), th.Malloc(64)
			th.WriteU64(va[0], 5)
			th.WriteU64(va[1], 7) // homed at host 1: one fetch, then a twin
		}
		th.Barrier()
		if th.Host() == 1 {
			got[0], got[1] = th.ReadU64(va[0]), th.ReadU64(va[1])
		}
		th.Barrier()
	})
	if got != [2]uint64{5, 7} {
		t.Fatalf("host 1 reads %v, want [5 7]", got)
	}
	if st := s.MWStats(); st.Fetches != 2 || st.DiffsSent != 1 {
		t.Fatalf("%d fetches and %d diffs flushed, want host 0's fetch of minipage 1, host 1's of minipage 0 and "+
			"host 0's flush to host 1", st.Fetches, st.DiffsSent)
	}
}

func TestMWDiffsMergeAtBarrier(t *testing.T) {
	// Two hosts write different words of the same minipage concurrently;
	// after the barrier both must observe both writes merged.
	s := newSys(t, NewMW, Options{Hosts: 2, SharedSize: 1 << 18, Views: 8})
	var va uint64
	var got [2][2]uint32
	run(t, s, func(th *Thread) {
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
	for h := 0; h < 2; h++ {
		if got[h][0] != 111 || got[h][1] != 222 {
			t.Fatalf("host %d sees %v, want [111 222]", h, got[h])
		}
	}
	if s.MWStats().DiffsSent == 0 {
		t.Fatal("no diffs flushed")
	}
	// Host 0 is the minipage's home: its write takes no twin.
	if st := s.MWStats(); st.TwinsMade < 1 || st.HomeWrites < 1 {
		t.Fatalf("TwinsMade = %d and HomeWrites = %d, want at least one twin per writer away from the home and "+
			"the home's write", st.TwinsMade, st.HomeWrites)
	}
}

func TestMWConcurrentWritersDoNotPingPong(t *testing.T) {
	// Between barriers, writers to one minipage must not invalidate each
	// other: after each host's first write fault per interval, subsequent
	// writes are local, so the write-fault count stays at one per host
	// per interval no matter how many writes land.
	s := newSys(t, NewMW, Options{Hosts: 2, SharedSize: 1 << 18, Views: 8})
	var va uint64
	const writes = 50
	run(t, s, func(th *Thread) {
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
	if s.MWStats().WriteFault > 4 {
		t.Fatalf("WriteFault = %d for %d writes by 2 hosts; concurrent writers ping-pong", s.MWStats().WriteFault, 2*writes)
	}
}

func TestChunkedLRCAgreesWithUnchunked(t *testing.T) {
	// A SOR-ish band workload: neighbors write adjacent 64-byte rows. The
	// final content must be the same with chunked minipages (intra-chunk
	// false sharing absorbed by diffs) as with per-row minipages.
	run := func(chunk int) []uint32 {
		s := newSys(t, NewMW, Options{Hosts: 4, SharedSize: 1 << 18, Views: 8, ChunkLevel: chunk})
		const rows = 32
		vas := make([]uint64, rows)
		out := make([]uint32, rows)
		run(t, s, func(th *Thread) {
			if th.Host() == 0 {
				for r := range vas {
					vas[r] = th.Malloc(64)
				}
			}
			th.Barrier()
			for it := 0; it < 3; it++ {
				for r := th.Host(); r < rows; r += th.NumHosts() {
					th.WriteU32(vas[r], uint32(r*100+it))
				}
				th.Barrier()
			}
			if th.Host() == 0 {
				for r := range vas {
					out[r] = th.ReadU32(vas[r])
				}
			}
			th.Barrier()
		})
		return out
	}
	plain := run(1)
	for r := range plain {
		if plain[r] != uint32(r*100+2) {
			t.Fatalf("row %d = %d, want %d", r, plain[r], r*100+2)
		}
	}
	for _, chunk := range []int{2, 4, 8} {
		chunked := run(chunk)
		for r := range plain {
			if plain[r] != chunked[r] {
				t.Fatalf("chunk %d, row %d: plain %d vs chunked %d", chunk, r, plain[r], chunked[r])
			}
		}
	}
}

func TestMWNoticeOnlyInvalidation(t *testing.T) {
	// A write notice invalidates exactly the minipages it names: a third
	// host's copy of an untouched minipage survives the barrier mapped,
	// while its copy of the written one is invalidated and refetched.
	s := newSys(t, NewMW, Options{Hosts: 3, SharedSize: 1 << 18, Views: 8})
	var vaA, vaB uint64
	var gotA, gotB uint32
	var protA, protB vm.Prot
	run(t, s, func(th *Thread) {
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
			mpA, _ := s.mpt.Lookup(vaA)
			mpB, _ := s.mpt.Lookup(vaB)
			protA, _ = h.Region.ProtOf(mpA.Info(s.Layout).Base)
			protB, _ = h.Region.ProtOf(mpB.Info(s.Layout).Base)
			gotA = th.ReadU32(vaA)
			gotB = th.ReadU32(vaB)
		}
		th.Barrier()
	})
	if protA != vm.NoAccess {
		t.Fatalf("noticed minipage A is %v at host 2 after the barrier, want NoAccess", protA)
	}
	if protB != vm.ReadOnly {
		t.Fatalf("untouched minipage B is %v at host 2 after the barrier, want ReadOnly (no invalidation)", protB)
	}
	if gotA != 11 || gotB != 2 {
		t.Fatalf("host 2 reads A=%d B=%d, want 11 2", gotA, gotB)
	}
}

func TestMWInvalidatedCopyRefetchedAfterBarriers(t *testing.T) {
	// A copy invalidated by a notice but left untouched across several
	// barriers, while the writer's notice epochs are reset, is refetched
	// from home and observes the written value.
	s := newSys(t, NewMW, Options{Hosts: 3, SharedSize: 1 << 18, Views: 8})
	var va uint64
	var got uint32
	run(t, s, func(th *Thread) {
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
		th.Barrier() // two more epochs: host 1 resets the interval's arena
		th.Barrier()
		if th.Host() == 2 {
			got = th.ReadU32(va + 128)
		}
		th.Barrier()
	})
	if got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
}

func TestMWDeterminism(t *testing.T) {
	run := func() (sim.Duration, MWStats) {
		s := newSys(t, NewMW, Options{Hosts: 4, SharedSize: 1 << 18, Views: 8})
		var va uint64
		run(t, s, func(th *Thread) {
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
		return s.Elapsed(), s.MWStats()
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
		s := &System{logLast: make([]int, hosts)}
		h := &Host{sys: s}
		seq := make([]uint64, hosts)
		for i, n := 0, rng.Intn(60); i < n; i++ {
			c := rng.Intn(hosts)
			seq[c] += 1 + uint64(rng.Intn(3))
			h.logNotice(mwNotice{Creator: c, Seq: seq[c]})
		}
		vc := make([]uint64, hosts)
		for c := range vc {
			vc[c] = uint64(rng.Intn(int(seq[c]) + 3))
		}
		var want []mwNotice
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
			if got[i].Creator != want[i].Creator || got[i].Seq != want[i].Seq {
				t.Fatalf("trial %d: notice %d is %d@%d, full scan gives %d@%d", trial, i, got[i].Seq, got[i].Creator, want[i].Seq, want[i].Creator)
			}
		}
	}
}

// TestMWDirtyCopyFetch: a copy an acquire invalidates while it is dirty
// keeps its own writes and re-twins from the home's bytes. Host 1 twins
// minipage M and writes word A; host 2 writes word B of M under a lock;
// host 1 takes the lock and reads both words — under the lock, which
// refetches the dirty copy, or after its unlock, which must leave the
// released copy invalid instead of re-exposing it. Either way it reads
// both (under the lock, and writes A again with no fault), the home holds both after the next barrier (an unlock does not
// wait for its diff to be applied), and host 1's flush carried a diff of A
// alone.
func TestMWDirtyCopyFetch(t *testing.T) {
	const offA, offB, valA, valB = 0, 32, 0xa1a1, 0xb2b2
	for _, underLock := range []bool{true, false} {
		t.Run(fmt.Sprintf("underLock=%v", underLock), func(t *testing.T) {
			s := newSys(t, NewMW, Options{Hosts: 3, SharedSize: 1 << 18, Views: 8})
			var va uint64
			var gotA, gotB uint32
			var flushed uint64
			var home []byte
			run(t, s, func(th *Thread) {
				if th.Host() == 0 {
					va = th.Malloc(64)
				}
				th.Barrier()
				switch th.Host() {
				case 1:
					th.WriteU32(va+offA, valA)
					th.Compute(5 * sim.Millisecond) // host 2's critical section comes first
					th.Lock(1)
					if underLock {
						gotA, gotB = th.ReadU32(va+offA), th.ReadU32(va+offB)
						faults := s.MWStats().WriteFault
						th.WriteU32(va+offA, valA) // the refetched dirty copy stays writable
						if n := s.MWStats().WriteFault - faults; n != 0 {
							t.Errorf("a write to the refetched dirty copy took %d write faults, want none", n)
						}
					}
					before := s.MWStats().DiffBytes
					th.Unlock(1)
					flushed = s.MWStats().DiffBytes - before
					if !underLock {
						gotA, gotB = th.ReadU32(va+offA), th.ReadU32(va+offB)
					}
				case 2:
					th.Lock(1)
					th.WriteU32(va+offB, valB)
					th.Unlock(1)
				}
				th.Barrier()
				if th.Host() == 1 {
					mp, _ := s.mpt.Lookup(va) // the home's own memory, through its privileged view
					home = make([]byte, 64)
					if err := s.Host(0).Region.ReadPrivInto(mp.Info(s.Layout).Base, home); err != nil {
						t.Error(err)
					}
				}
			})
			if gotA != valA || gotB != valB {
				t.Fatalf("host 1 reads A=%#x B=%#x, want %#x %#x", gotA, gotB, valA, valB)
			}
			if a, b := binary.LittleEndian.Uint32(home[offA:]), binary.LittleEndian.Uint32(home[offB:]); a != valA || b != valB {
				t.Fatalf("home holds A=%#x B=%#x after the barrier, want %#x %#x", a, b, valA, valB)
			}
			before, after := make([]byte, 64), make([]byte, 64)
			binary.LittleEndian.PutUint32(after[offA:], valA)
			onlyA, err := twindiff.AppendDiff(nil, before, after)
			if err != nil {
				t.Fatal(err)
			}
			if flushed != uint64(len(onlyA)) {
				t.Fatalf("host 1's unlock flushed %d diff bytes, a diff of word A alone is %d", flushed, len(onlyA))
			}
		})
	}
}

// TestMWLockHeavyRunPinned holds a lock-heavy run to a sequential replay
// of its own critical sections: 4 hosts at chunk level 4 (four cells to a
// minipage, so every minipage has several concurrent writers), 60 lock
// releases a host an epoch over 5 epochs. Every host owns one word of
// every cell and, under the cell's lock, sums the cell's words and writes
// its own as that sum plus a step. The sections are logged in grant
// order; replaying the log in Go must reproduce every sum each host read
// and, after the last barrier, every host's view of the whole memory. The
// result depends on lock order, so it is checked against the replay, not
// pinned; the protocol counters and the elapsed virtual time are pinned
// per placement.
func TestMWLockHeavyRunPinned(t *testing.T) {
	for _, pl := range []struct {
		name   string
		homeOf func(id, hosts int) int
	}{{"default", nil}, {"central", HomeCentral}} {
		t.Run(pl.name, func(t *testing.T) {
			s := lockHeavyRun(t, newSys(t, NewMW, Options{Hosts: 4, SharedSize: 1 << 18, Views: 8, ChunkLevel: 4, HomeOf: pl.homeOf}))
			pins.Check(t, "MWLockHeavyRunPinned/"+pl.name, fmt.Sprintf("elapsed=%d stats=%+v", int64(s.Elapsed()), s.MWStats()))
		})
	}
}

// lockHeavyRun runs TestMWLockHeavyRunPinned's program on s, a 4-host
// cluster at chunk level 4, and checks it against its replay.
func lockHeavyRun(t *testing.T, s *System) *System {
	const hosts, cells, epochs, locksPerEpoch = 4, 64, 5, 60
	type section struct {
		cell, host int
		step, val  uint32
	}
	var va [cells]uint64
	var log []section
	var final [hosts][cells][16]uint32
	run(t, s, func(th *Thread) {
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
				// next touched two barriers later.
				c := 4*((i+me)%8+8*(e/2%2)) + (i/8+me)%4
				th.Lock(c)
				var seen uint32
				for h := 0; h < hosts; h++ {
					seen += th.ReadU32(va[c] + uint64(h)*8)
				}
				step := uint32(e*locksPerEpoch + i + 1)
				th.WriteU32(va[c]+uint64(me)*8, seen+step)
				log = append(log, section{c, me, step, seen + step})
				th.Unlock(c)
				th.Compute(20 * sim.Microsecond)
			}
			th.Barrier()
		}
		for c := range va {
			for w := range final[me][c] {
				final[me][c][w] = th.ReadU32(va[c] + uint64(w)*4)
			}
		}
		th.Barrier()
	})
	var want [cells][16]uint32
	for k, sec := range log {
		var seen uint32
		for h := 0; h < hosts; h++ {
			seen += want[sec.cell][2*h]
		}
		if sec.val != seen+sec.step {
			t.Fatalf("section %d (cell %d, host %d) wrote %d, the replay's sum gives %d", k, sec.cell, sec.host, sec.val, seen+sec.step)
		}
		want[sec.cell][2*sec.host] = sec.val
	}
	if len(log) != hosts*epochs*locksPerEpoch {
		t.Fatalf("%d critical sections logged, want %d", len(log), hosts*epochs*locksPerEpoch)
	}
	for h := range final {
		if final[h] != want {
			t.Errorf("host %d reads back memory that differs from the replay", h)
		}
	}
	return s
}

// TestClassesShareNoState: each consistency class leaves the other's state
// untouched. The DRF oracle run under millipage keeps no notice log or
// lrc-mw counter, which lrc-mw's
// synchronization work would fill if it ran for an SC host (SC runs the
// barrier half only); under lrc-mw the same run places no
// directory entry and counts no directory request. Migrations is both
// classes' home-move counter, so it is left out.
func TestClassesShareNoState(t *testing.T) {
	const hosts = 4
	for _, mk := range []func(string, Options) (*System, error){New, NewMW} {
		s := newSys(t, mk, Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8})
		d := &check.DRF{Hosts: hosts, Rounds: 3, LockReps: 4}
		run(t, s, func(th *Thread) { d.Body(th) })
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		st := s.MWStats()
		st.Migrations = 0
		if !s.mw && (s.logLast != nil || len(s.log) != 0 || st != (MWStats{})) {
			t.Errorf("lrc-mw state after an SC run: notice log %v, %d notices logged, %+v", s.logLast, len(s.log), st)
		}
		if s.mw && (len(s.dir) != 0 || s.ManagerStatsTotal() != (ManagerStats{})) {
			t.Errorf("directory state after an lrc-mw run: %d slabs, %+v", len(s.dir), s.ManagerStatsTotal())
		}
	}
}

// TestMWFetchWaitsForNamedDiff: a release does not wait for its diffs, so
// the fetch and the home's acquire do. A partition cuts host 1, which
// writes minipage 2 under lock 1, from host 2, the minipage's home, from
// after host 1 fetched its copy until cutUntil: the diff is still on the
// wire as the unlock's notice reaches the other hosts. Host 0 takes lock 1
// and reads the minipage; its fetch parks at the home until the diff
// lands. Host 2 takes lock 2, whose grant names the same notice, and reads
// its own copy only once the diff is applied. Host 1's unlock returns
// inside the partition. At one host every write is a home write: no twin,
// no diff.
func TestMWFetchWaitsForNamedDiff(t *testing.T) {
	const val = 0xfeed
	cutFrom, cutUntil := sim.Time(2*sim.Millisecond), sim.Time(20*sim.Millisecond)
	s := newSys(t, NewMW, Options{Hosts: 3, SharedSize: 1 << 18, Views: 8, Faults: &faultnet.Plan{
		Partitions: []faultnet.Partition{{A: 0b010, B: 0b100, From: cutFrom, Until: cutUntil}}}})
	var va [3]uint64
	var got [3]uint32
	var at [3]sim.Time
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			for i := range va {
				va[i] = th.Malloc(64)
			}
		}
		th.Barrier()
		switch th.Host() {
		case 1:
			th.ReadU32(va[2]) // its copy, fetched before the cut
			th.Compute(3 * sim.Millisecond)
			th.Lock(1)
			th.WriteU32(va[2], val)
			th.Unlock(1)
		case 0:
			th.Compute(5 * sim.Millisecond)
			th.Lock(1)
			got[0] = th.ReadU32(va[2])
			th.Unlock(1)
		case 2:
			th.Compute(5 * sim.Millisecond)
			th.Lock(2)
			got[2] = th.ReadU32(va[2])
			th.Unlock(2)
		}
		at[th.Host()] = th.Now()
		th.Barrier()
	})
	if s.HomeOf(2) != 2 {
		t.Fatalf("minipage 2 is homed at host %d, the test wants host 2", s.HomeOf(2))
	}
	if got[0] != val || got[2] != val {
		t.Fatalf("host 0 read %#x and the home %#x, want %#x", got[0], got[2], val)
	}
	if at[1] >= cutUntil || at[0] < cutUntil || at[2] < cutUntil {
		t.Fatalf("done at %v (hosts 0-2): the releaser must finish inside the partition, until %v, the readers after it", at, cutUntil)
	}
	if st := s.MWStats(); st.FetchesParked != 1 || st.HomeWaits == 0 {
		t.Fatalf("%d fetches parked and %d home waits, want host 0's fetch parked and host 2's acquire held", st.FetchesParked, st.HomeWaits)
	}

	s = newSys(t, NewMW, Options{Hosts: 1, SharedSize: 1 << 18, Views: 8})
	if err := s.Run(func(th *Thread) {
		va := th.Malloc(256)
		for i := 0; i < 4; i++ {
			th.Lock(0)
			th.WriteU32(va+uint64(i)*64, uint32(i))
			th.Unlock(0)
			th.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.MWStats(); st.TwinsMade != 0 || st.DiffsSent != 0 || st.HomeWrites != 4 {
		t.Fatalf("1 host: %d twins, %d diffs and %d home writes, want 0, 0 and one per interval, 4", st.TwinsMade, st.DiffsSent, st.HomeWrites)
	}
}

// TestMWFetchWaitsForEveryDiffOfItsInterval: a home counts a writer's
// diffs by interval and minipage, not by interval alone. Host 1 writes two
// 4 KB minipages homed at host 2, ids 2 and 5, in one interval, and a
// partition cuts it from host 2 between the two diffs its unlock sends (a
// 4 KB diff takes 250 us to make): the first is applied, the second held.
// Host 0's fetch of minipage 5 must wait for the second. Cut before both,
// the fetch is retried as the first lands and parks again, counted once.
// Written in the other order, the diffs still leave by id: cut between
// them, host 0's fetch of minipage 2 finds its diff applied and does not
// park, where diffs sent in write order would have let the home take
// minipage 5's diff for 2's and serve the fetch without it.
func TestMWFetchWaitsForEveryDiffOfItsInterval(t *testing.T) {
	const val = 0x5eed
	program := func(cut faultnet.Partition, written [2]int, read int) (unlock sim.Time, got uint32, s *System) {
		s = newSys(t, NewMW, Options{Hosts: 3, SharedSize: 1 << 20, Views: 8,
			Faults: &faultnet.Plan{Partitions: []faultnet.Partition{cut}}})
		var va [6]uint64
		run(t, s, func(th *Thread) {
			if th.Host() == 0 {
				for i := range va {
					va[i] = th.Malloc(4096)
				}
			}
			th.Barrier()
			switch th.Host() {
			case 1:
				th.ReadU32(va[2])
				th.ReadU32(va[5])
				th.Lock(1)
				th.WriteU32(va[written[0]], val)
				th.WriteU32(va[written[1]], val)
				unlock = th.Now()
				th.Unlock(1)
			case 0:
				th.Compute(10 * sim.Millisecond)
				th.Lock(1)
				got = th.ReadU32(va[read])
				th.Unlock(1)
			}
			th.Barrier()
		})
		return unlock, got, s
	}
	far := sim.Time(1 << 60)
	for _, c := range []struct {
		written      [2]int
		read, parked int // parked: cut between the diffs; cut before both, always 1
	}{{[2]int{2, 5}, 5, 1}, {[2]int{5, 2}, 2, 0}} {
		unlock, _, _ := program(faultnet.Partition{A: 0b010, B: 0b100, From: far, Until: far + 1}, c.written, c.read) // armed, never cut: the same timing
		// Cut between the diffs, then before both.
		for i, after := range []sim.Duration{380 * sim.Microsecond, 100 * sim.Microsecond} {
			from := unlock + sim.Time(after)
			_, got, s := program(faultnet.Partition{A: 0b010, B: 0b100, From: from, Until: from + sim.Time(20*sim.Millisecond)}, c.written, c.read)
			if got != val {
				t.Fatalf("written %v, cut %v after the unlock: host 0 read %#x from minipage %d, want %#x", c.written, after, got, c.read, val)
			}
			if st := s.MWStats(); st.FetchesParked != uint64(max(c.parked, i)) {
				t.Fatalf("written %v, cut %v after the unlock: %d fetches parked, want %d", c.written, after, st.FetchesParked, max(c.parked, i))
			}
		}
	}
}

// TestMWHomeFollowsStableWriter: host 2 writes minipage 1, homed at host 1,
// alone in two barrier epochs in a row, so the second barrier moves its
// home to host 2 on every host. Host 2's third-epoch write is then a home
// write, with no twin and no diff, and host 3's first read of the minipage
// is one fetch that host 2 serves and host 1 takes no part in. Host 3 held
// needs for host 2's first two diffs, which went to host 1: had the move
// not dropped them, host 2 would park that fetch for good.
func TestMWHomeFollowsStableWriter(t *testing.T) {
	s := newSys(t, NewMW, Options{Hosts: 4, SharedSize: 1 << 18, Views: 8})
	var va [2]uint64
	var before, after MWStats
	var mover, old [2]fastmsg.Stats
	var got uint32
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va[0], va[1] = th.Malloc(64), th.Malloc(64)
		}
		th.Barrier()
		for epoch := uint32(1); epoch <= 3; epoch++ {
			if th.Host() == 2 {
				if epoch == 3 {
					before = s.MWStats()
				}
				th.WriteU32(va[1], epoch)
			}
			th.Barrier()
		}
		if th.Host() != 3 {
			if th.Host() == 2 {
				after = s.MWStats()
			}
			th.Compute(50 * sim.Millisecond)
			return
		}
		mover[0], old[0] = s.Host(2).EP.Stats(), s.Host(1).EP.Stats()
		got = th.ReadU32(va[1])
		mover[1], old[1] = s.Host(2).EP.Stats(), s.Host(1).EP.Stats()
	})
	if s.HomeOf(1) != 1 {
		t.Fatalf("minipage 1 starts at host %d, the test wants host 1", s.HomeOf(1))
	}
	for i := 0; i < 4; i++ {
		if home := s.Host(i).homeOf(1); home != 2 {
			t.Errorf("host %d homes minipage 1 at host %d, want the writer, 2", i, home)
		}
	}
	if st := s.MWStats(); st.Migrations != 1 {
		t.Errorf("%d migrations, want 1", st.Migrations)
	}
	if hw, tw, df := after.HomeWrites-before.HomeWrites, after.TwinsMade-before.TwinsMade, after.DiffsSent-before.DiffsSent; hw != 1 || tw != 0 || df != 0 {
		t.Errorf("the third epoch took %d home writes, %d twins and %d diffs, want 1, 0 and 0", hw, tw, df)
	}
	if got != 3 {
		t.Errorf("host 3 read %d, want the third epoch's 3", got)
	}
	if sent, was := mover[1].Sent-mover[0].Sent, old[1].Sent-old[0].Sent; sent != 2 || was != 0 {
		t.Errorf("over host 3's read the new home sent %d and the old one %d, want 2 (reply and bytes) and 0", sent, was)
	}

	// The oracle workload the explorer and the chaos suite run moves one home.
	s = newSys(t, NewMW, Options{Hosts: 3, SharedSize: 1 << 18, Views: 8})
	wl := &check.HomeMove{Hosts: 3}
	run(t, s, func(th *Thread) { wl.Body(th) })
	if err := wl.Err(); err != nil {
		t.Fatal(err)
	}
	if st := s.MWStats(); st.Migrations != 1 || s.Host(1).homeOf(0) != 2 {
		t.Errorf("check.HomeMove: %d migrations, minipage 0 homed at host %d; want 1, at host 2", st.Migrations, s.Host(1).homeOf(0))
	}
}

// TestMWRotatingWriterKeepsHome: a minipage's only writer changes every
// epoch, hosts 2 and 3 taking turns under a lock, so no writer is the sole
// one of two epochs in a row and the home never moves. Every read sees the
// last epoch's value.
func TestMWRotatingWriterKeepsHome(t *testing.T) {
	s := newSys(t, NewMW, Options{Hosts: 4, SharedSize: 1 << 18, Views: 8})
	var va [2]uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va[0], va[1] = th.Malloc(64), th.Malloc(64)
		}
		th.Barrier()
		for epoch := uint32(1); epoch <= 8; epoch++ {
			if th.Host() == 2+int(epoch%2) {
				th.Lock(0)
				th.WriteU32(va[1], epoch)
				th.Unlock(0)
			}
			th.Barrier()
			if got := th.ReadU32(va[1]); got != epoch {
				t.Errorf("host %d read %d after epoch %d", th.Host(), got, epoch)
			}
			th.Barrier()
		}
	})
	if st := s.MWStats(); st.Migrations != 0 {
		t.Errorf("%d migrations, want none", st.Migrations)
	}
	for i := 0; i < 4; i++ {
		if home := s.Host(i).homeOf(1); home != 1 {
			t.Errorf("host %d homes minipage 1 at host %d, want HomeOf's 1", i, home)
		}
	}
}

// TestMWMoveWaitsForDiffInFlight: host 1 maps minipage 1, homed at itself;
// host 2 then writes it alone in two epochs, and a partition cuts host 2
// from host 1 as the second epoch's barrier arrival sends its diff, until
// cutUntil. The release moves the home to host 2. Host 1's acquire holds
// the old home until the diff lands, and only then lets go, keeping its
// bytes as a cached copy it reads without a fetch. Host 0 meanwhile reads
// the minipage from the new home, inside the partition.
func TestMWMoveWaitsForDiffInFlight(t *testing.T) {
	const val = 0xd1ff
	cutFrom, cutUntil := sim.Time(10*sim.Millisecond), sim.Time(40*sim.Millisecond)
	s := newSys(t, NewMW, Options{Hosts: 3, SharedSize: 1 << 18, Views: 8, Faults: &faultnet.Plan{
		Partitions: []faultnet.Partition{{A: 0b100, B: 0b010, From: cutFrom, Until: cutUntil}}}})
	var va [2]uint64
	var got [3]uint32
	var arrive, done [3]sim.Time
	var sent [2]uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va[0], va[1] = th.Malloc(64), th.Malloc(64)
		}
		th.Barrier()
		if th.Host() == 1 {
			th.ReadU32(va[1]) // the home maps its copy
		}
		th.Barrier()
		if th.Host() == 2 {
			th.WriteU32(va[1], 1)
		}
		th.Barrier()
		if th.Host() == 2 {
			th.Compute(cutFrom.Sub(th.Now()) + sim.Millisecond)
			th.WriteU32(va[1], val)
		}
		arrive[th.Host()] = th.Now()
		th.Barrier()
		done[th.Host()] = th.Now()
		switch th.Host() {
		case 0:
			got[0] = th.ReadU32(va[1])
			done[0] = th.Now()
		case 1:
			sent[0] = s.Host(1).EP.Stats().Sent
			got[1] = th.ReadU32(va[1])
			sent[1] = s.Host(1).EP.Stats().Sent
		}
		th.Barrier()
	})
	if arrive[2] < cutFrom || arrive[2] >= cutUntil {
		t.Fatalf("host 2 arrives at %v, want inside the partition [%v, %v)", arrive[2], cutFrom, cutUntil)
	}
	if got[0] != val || got[1] != val {
		t.Errorf("host 0 read %#x and the old home %#x, want %#x", got[0], got[1], val)
	}
	if done[1] < cutUntil || done[0] >= cutUntil {
		t.Errorf("the old home left the barrier at %v and host 0 had read at %v: want the old home held past %v, host 0 served before it",
			done[1], done[0], cutUntil)
	}
	if sent[1] != sent[0] {
		t.Errorf("the old home sent %d messages to read its cached copy, want none", sent[1]-sent[0])
	}
	if st := s.MWStats(); st.Migrations != 1 || st.HomeWaits == 0 {
		t.Errorf("%d migrations and %d home waits, want 1 and the old home's acquire held", st.Migrations, st.HomeWaits)
	}
}

// TestMWFetchIsARead: an lrc-mw fetch runs on SC's read rows. Host 1 homes
// every minipage, allocates a 128 B and a 4 KB one and writes both; after
// a barrier host 2 reads each once, uncontended. Each fetch is one
// READ_REQUEST to its home, answered by one READ_REPLY and one DATA; no
// ACK, READ_FWD or INVALIDATE_REQUEST is sent, and no directory counts
// anything. Each fetch's latency is pinned: what it was while the fetch
// had rows of its own, whose reply did not charge the install of its
// bytes, plus that charge, Info.Size x InstallPerByte. The reply's header
// is recycled by that install; under -tags invariants a recycled header is
// poisoned, so a use after it or a second recycle panics here.
func TestMWFetchIsARead(t *testing.T) {
	rec := trace.NewRecorder(1 << 12)
	s := newSys(t, NewMW, Options{Hosts: 3, SharedSize: 1 << 18, Views: 8, Trace: rec,
		HomeOf: func(id, hosts int) int { return 1 }})
	fetches := []struct {
		size   int
		va     uint64
		parent sim.Duration // the latency before the fetch became a read
		got    sim.Duration
	}{{size: 128, parent: 151828}, {size: 4096, parent: 227220}}
	run(t, s, func(th *Thread) {
		if th.Host() == 1 {
			for i := range fetches {
				fetches[i].va = th.Malloc(fetches[i].size)
				th.WriteU32(fetches[i].va, uint32(i+1))
			}
		}
		th.Barrier()
		for i := range fetches {
			if th.Host() != 2 {
				break
			}
			start := th.p.Now()
			if got := th.ReadU32(fetches[i].va); got != uint32(i+1) {
				t.Errorf("host 2 read %d from the %d B minipage, want %d", got, fetches[i].size, i+1)
			}
			fetches[i].got = th.p.Now().Sub(start)
		}
		th.Barrier()
	})
	// A data message's send is its header's tail: the trace records its
	// handling only.
	seen := map[string][]trace.Event{}
	for _, e := range rec.Events() {
		if name := trace.OpName(e.Op); e.Kind == trace.Send || e.Kind == trace.Handle && name == "DATA" {
			seen[name] = append(seen[name], e)
		}
	}
	for _, name := range []string{"READ_REQUEST", "READ_REPLY", "DATA"} {
		if len(seen[name]) != len(fetches) {
			t.Errorf("%d %s, want one per fetch: %v", len(seen[name]), name, seen[name])
		}
		host, peer := 2, 1 // host 2 sends the request and handles the bytes
		if name == "READ_REPLY" {
			host, peer = 1, 2 // the home answers
		}
		for _, e := range seen[name] {
			if name == "READ_REQUEST" && e.Home != 1 {
				t.Errorf("%v names home %d, want 1", e, e.Home)
			}
			if e.Host != host || e.Peer != peer {
				t.Errorf("%v: want h%d->h%d", e, host, peer)
			}
		}
	}
	for _, name := range []string{"ACK", "READ_FWD", "INVALIDATE_REQUEST"} {
		if len(seen[name]) != 0 {
			t.Errorf("an lrc-mw fetch sent %s: %v", name, seen[name])
		}
	}
	for _, e := range rec.Grep("mp=0") { // a DATA message's shared marker names no minipage
		if trace.OpName(e.Op) == "DATA" {
			t.Errorf("%v traces a fetch's bytes as minipage 0's", e)
		}
	}
	if ms := s.ManagerStatsTotal(); ms != (ManagerStats{}) {
		t.Errorf("lrc-mw counted directory work: %+v", ms)
	}
	c := s.Opt.Costs
	for i, f := range fetches {
		mp, _ := s.MPT().ByID(i)
		if want := f.parent + sim.Duration(mp.Info(s.Layout).Size)*c.InstallPerByte; f.got != want {
			t.Errorf("the %d B fetch took %v, want %v: %v before the fetch was a read, and the install of its bytes", f.size, f.got, want, f.parent)
		}
	}
}

// TestMWNeedKeepsNewestInterval: a host that learns two intervals of one
// writer for one minipage needs the newer one's diff at the home. Host 2
// writes minipage 0 (homed at host 0) in two critical sections, and host
// 1's one grant carries both notices: its need for the minipage names
// host 2's second interval, once.
func TestMWNeedKeepsNewestInterval(t *testing.T) {
	s := newSys(t, NewMW, Options{Hosts: 3, SharedSize: 1 << 18, Views: 8})
	var va uint64
	var need []mwNeed
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
		}
		th.Barrier()
		switch th.Host() {
		case 2:
			for i := range 2 {
				th.Lock(1)
				th.WriteU32(va, uint32(i))
				th.Unlock(1)
			}
		case 1:
			th.Compute(5 * sim.Millisecond) // both critical sections come first
			th.Lock(1)
			h := th.host
			for i := h.mps[0].need; i != 0; i = h.needs[i-1].next {
				need = append(need, mwNeed{Creator: h.needs[i-1].Creator, Seq: h.needs[i-1].Seq})
			}
			th.Unlock(1)
		}
		th.Barrier()
	})
	if want := []mwNeed{{Creator: 2, Seq: 2}}; !slices.Equal(need, want) {
		t.Fatalf("host 1 needs %+v for minipage 0, want %+v", need, want)
	}
}

// TestMWHomeWaitsAgain: a home's acquire that waits for a diff waits on
// an event every apply sets, so it resets the event first. Host 2, the
// home of minipage 2, applies host 1's diff of it in the first epoch; in
// the second a partition holds host 1's next diff while host 2 takes the
// lock host 1 released it under. Host 2's acquire blocks once, until the
// diff lands, and reads it.
func TestMWHomeWaitsAgain(t *testing.T) {
	const cutFrom, cutUntil = sim.Time(5 * sim.Millisecond), sim.Time(15 * sim.Millisecond)
	s := newSys(t, NewMW, Options{Hosts: 3, SharedSize: 1 << 18, Views: 8, Faults: &faultnet.Plan{
		Partitions: []faultnet.Partition{{A: 0b010, B: 0b100, From: cutFrom, Until: cutUntil}}}})
	var va [3]uint64
	var got uint32
	var waits uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			for i := range va {
				va[i] = th.Malloc(64)
			}
		}
		th.Barrier()
		if th.Host() == 1 {
			th.Lock(1)
			th.WriteU32(va[2], 1)
			th.Unlock(1)
		}
		th.Barrier()
		switch th.Host() {
		case 1:
			th.Compute(cutFrom.Sub(th.Now()) + sim.Millisecond)
			th.Lock(1)
			th.WriteU32(va[2], 2)
			th.Unlock(1)
		case 2:
			th.Compute(cutFrom.Sub(th.Now()) + 3*sim.Millisecond)
			before := s.MWStats().HomeWaits
			th.Lock(1)
			waits = s.MWStats().HomeWaits - before
			got = th.ReadU32(va[2])
			th.Unlock(1)
		}
		th.Barrier()
	})
	if s.HomeOf(2) != 2 {
		t.Fatalf("minipage 2 is homed at host %d, the test wants host 2", s.HomeOf(2))
	}
	if got != 2 || waits != 1 {
		t.Fatalf("host 2 read %d after %d home waits, want 2 after 1", got, waits)
	}
}

// TestMWBarrierAnnouncesItsEpoch: a barrier arrival carries every interval
// its host closed in the epoch, since an unlock that carries one may reach
// the coordinator after the arrival does (TestChaosTree's drop-heavy
// schedule). Host 1 closes an interval whose notice goes nowhere, as if its
// unlock were still on the wire, and arrives at the barrier: host 2's
// cached copy of the minipage is invalidated by it all the same.
func TestMWBarrierAnnouncesItsEpoch(t *testing.T) {
	s := newSys(t, NewMW, Options{Hosts: 3, SharedSize: 1 << 18, Views: 8})
	var va uint64
	var got uint32
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
		}
		th.Barrier()
		if th.Host() == 2 {
			th.ReadU32(va) // a copy, kept across the next barrier
		}
		th.Barrier()
		if th.Host() == 1 {
			th.WriteU32(va, 7)
			th.release() // its notice is not logged
		}
		th.Barrier()
		if th.Host() == 2 {
			got = th.ReadU32(va)
		}
	})
	if got != 7 {
		t.Fatalf("host 2 read %d past the barrier, want 7", got)
	}
}

// TestMWTwinGrowsWithChunk: a dirty copy takes its chunk's later
// allocations without a fault, and its twin grows over them at release
// from the old twin, with zeros past it. Host 1 twins cell a of a chunk
// whose word 8 host 0 wrote, host 0 allocates cell b in the same chunk,
// and host 1 writes a and b; host 2 meanwhile writes word 8 under a lock.
// Host 1's diff carries its own words alone, so host 2's stays.
func TestMWTwinGrowsWithChunk(t *testing.T) {
	s := newSys(t, NewMW, Options{Hosts: 3, SharedSize: 1 << 18, Views: 8, ChunkLevel: 4})
	var a, b uint64
	var got [3]uint32
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			a = th.Malloc(64)
			th.WriteU32(a+8, 0x11)
		}
		th.Barrier()
		switch th.Host() {
		case 0:
			th.Compute(sim.Millisecond)
			b = th.Malloc(64)
		case 1:
			th.WriteU32(a, 0xa)
			th.Compute(2 * sim.Millisecond)
			th.WriteU32(b, 0xb)
			th.Compute(3 * sim.Millisecond)
			th.Lock(1)
			th.Unlock(1)
		case 2:
			th.Compute(3 * sim.Millisecond)
			th.Lock(2)
			th.WriteU32(a+8, 0x22)
			th.Unlock(2)
		}
		th.Barrier()
		if th.Host() == 0 {
			got = [3]uint32{th.ReadU32(a), th.ReadU32(a + 8), th.ReadU32(b)}
		}
	})
	if ma, _ := s.mpt.Lookup(a); ma.ID != func() int { mb, _ := s.mpt.Lookup(b); return mb.ID }() {
		t.Fatal("cells a and b lie in two minipages, the test wants one chunk")
	}
	if got != [3]uint32{0xa, 0x22, 0xb} {
		t.Fatalf("home reads %#x, want [0xa 0x22 0xb]", got)
	}
}

// TestMWInvalidationCoversGrownChunk: an acquire invalidates a dirty copy
// over the extent it was twinned at, which its chunk's growth since the
// fetch made two pages. Host 1 fetches cell a (one page), host 0 allocates
// cell b on the chunk's second page, and host 1 writes a; host 2 writes b
// under a lock that host 1 then takes. Host 1 must fault on b and read
// host 2's word, not its own stale page.
func TestMWInvalidationCoversGrownChunk(t *testing.T) {
	s := newSys(t, NewMW, Options{Hosts: 3, SharedSize: 1 << 18, Views: 8, ChunkLevel: 2})
	var a, b uint64
	var got uint32
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			a = th.Malloc(3000)
		}
		th.Barrier()
		switch th.Host() {
		case 0:
			th.Compute(sim.Millisecond)
			b = th.Malloc(3000)
		case 1:
			th.ReadU32(a)
			th.Compute(2 * sim.Millisecond)
			th.WriteU32(a, 1)
			th.Compute(3 * sim.Millisecond)
			th.Lock(1)
			got = th.ReadU32(b + 1500)
			th.Unlock(1)
		case 2:
			th.Compute(3 * sim.Millisecond)
			th.Lock(1)
			th.WriteU32(b+1500, 0x77)
			th.Unlock(1)
		}
		th.Barrier()
	})
	if mb, _ := s.mpt.Lookup(b); a/vm.PageSize == (b+1500)/vm.PageSize || mb.Info(s.Layout).Base != a {
		t.Fatal("word b+1500 is not on the second page of cell a's minipage")
	}
	if got != 0x77 {
		t.Fatalf("host 1 read %#x from cell b, want 0x77", got)
	}
}
