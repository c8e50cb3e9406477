package lrc

import (
	"testing"

	"millipage/internal/cluster"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// run and runMW drive typed bodies: System.Run hands bodies the portable
// AppThread, and these tests exercise the LRC threads behind it.
func run(s *System, body func(th *Thread)) error {
	return s.Run(func(t cluster.AppThread) { body(t.(*Thread)) })
}

func runMW(s *MWSystem, body func(th *MWThread)) error {
	return s.Run(func(t cluster.AppThread) { body(t.(*MWThread)) })
}

func newSys(t *testing.T, hosts, chunk int) *System {
	t.Helper()
	s, err := New(Options{Hosts: hosts, SharedSize: 1 << 18, Views: 8, ChunkLevel: chunk, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingleHostWriteRead(t *testing.T) {
	s := newSys(t, 1, 1)
	var got uint32
	err := run(s, func(th *Thread) {
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

func TestDiffsMergeAtBarrier(t *testing.T) {
	// Two hosts write DIFFERENT words of the SAME minipage concurrently —
	// the false sharing LRC absorbs. After the barrier both see both
	// writes merged at the home.
	s := newSys(t, 2, 1)
	var va uint64
	var got [2][2]uint32
	err := run(s, func(th *Thread) {
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
}

func TestConcurrentWritersDoNotPingPong(t *testing.T) {
	// Between barriers, writers to one minipage must not invalidate each
	// other: after each host's first write fault per interval, subsequent
	// writes are local.
	s := newSys(t, 2, 1)
	var va uint64
	err := run(s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(512)
		}
		th.Barrier()
		off := uint64(th.Host() * 128)
		for i := 0; i < 100; i++ {
			th.WriteU32(va+off+uint64(4*(i%16)), uint32(i))
			th.Compute(50 * sim.Microsecond)
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// One write fault per host for the interval (plus host 1's fetch).
	if s.Stats().WriteFault > 4 {
		t.Fatalf("write faults = %d, want <= 4 (no ping-pong under LRC)", s.Stats().WriteFault)
	}
}

func TestInvalidateAfterBarrierRefetches(t *testing.T) {
	s := newSys(t, 2, 1)
	var va uint64
	var seen uint32
	err := run(s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
			th.WriteU32(va, 1)
		}
		th.Barrier()
		if th.Host() == 1 {
			_ = th.ReadU32(va) // takes a cached copy
		}
		th.Barrier()
		if th.Host() == 0 {
			th.WriteU32(va, 2)
		}
		th.Barrier()
		if th.Host() == 1 {
			seen = th.ReadU32(va) // must refetch, not reuse the stale copy
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("host 1 read %d after barrier, want 2", seen)
	}
}

func TestHomeProtectionStaysWritable(t *testing.T) {
	s := newSys(t, 2, 1)
	var va uint64
	err := run(s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
			th.WriteU32(va, 5)
		}
		th.Barrier()
		if th.Host() == 0 {
			if p, _ := th.host.Region.ProtOf(va); p != vm.ReadWrite {
				t.Errorf("home prot = %v, want ReadWrite", p)
			}
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChunkedLRCAgreesWithUnchunked(t *testing.T) {
	// A SOR-ish band workload: neighbors write adjacent 64-byte rows. The
	// final content must be the same with chunked minipages (intra-chunk
	// false sharing absorbed by diffs) as with per-row minipages.
	run := func(chunk int) []uint32 {
		s := newSys(t, 4, chunk)
		const rows = 32
		vas := make([]uint64, rows)
		out := make([]uint32, rows)
		err := run(s, func(th *Thread) {
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
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := run(1)
	chunked := run(4)
	for r := range plain {
		if plain[r] != chunked[r] {
			t.Fatalf("row %d: plain %d vs chunked %d", r, plain[r], chunked[r])
		}
		if plain[r] != uint32(r*100+2) {
			t.Fatalf("row %d = %d, want %d", r, plain[r], r*100+2)
		}
	}
}

func TestDeterministic(t *testing.T) {
	run := func() (sim.Duration, uint64) {
		s := newSys(t, 4, 2)
		var va uint64
		err := run(s, func(th *Thread) {
			if th.Host() == 0 {
				va = th.Malloc(256)
			}
			th.Barrier()
			for i := 0; i < 10; i++ {
				th.WriteU32(va+uint64(th.Host()*64), uint32(i))
				th.Barrier()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Elapsed(), s.Stats().DiffBytes
	}
	e1, d1 := run()
	e2, d2 := run()
	if e1 != e2 || d1 != d2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", e1, d1, e2, d2)
	}
}
