package ivy

import (
	"testing"

	"millipage/internal/cluster"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// run drives a typed body: System.Run hands bodies the portable
// AppThread, and these tests exercise the Ivy thread behind it.
func run(s *System, body func(th *Thread)) error {
	return s.Run(func(t cluster.AppThread) { body(t.(*Thread)) })
}

func newSys(t *testing.T, hosts int) *System {
	t.Helper()
	s, err := New(Options{Hosts: hosts, SharedSize: 1 << 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingleHostRoundTrip(t *testing.T) {
	s := newSys(t, 1)
	var got uint32
	err := run(s, func(th *Thread) {
		th.WriteU32(s.Base(), 99)
		got = th.ReadU32(s.Base())
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("got %d", got)
	}
}

func TestCrossHostSharing(t *testing.T) {
	s := newSys(t, 4)
	base := s.Base()
	var got [4]uint32
	err := run(s, func(th *Thread) {
		if th.Host() == 0 {
			th.WriteU32(base+vm.PageSize, 1234) // page 1: managed by host 1
		}
		th.Barrier()
		got[th.Host()] = th.ReadU32(base + vm.PageSize)
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for h, v := range got {
		if v != 1234 {
			t.Fatalf("host %d read %d", h, v)
		}
	}
}

func TestDistributedManagers(t *testing.T) {
	// Pages are managed by their residue class and initially owned there.
	s := newSys(t, 4)
	for p := 0; p < 8; p++ {
		mgr := p % 4
		for h := 0; h < 4; h++ {
			_, managed := s.Host(h).dir[p]
			if managed != (h == mgr) {
				t.Fatalf("page %d managed at host %d = %v", p, h, managed)
			}
		}
		prot, err := s.Host(mgr).AS.ProtOf(s.Base() + uint64(p*vm.PageSize))
		if err != nil || prot != vm.ReadWrite {
			t.Fatalf("page %d not writable at its manager: %v %v", p, prot, err)
		}
	}
}

func TestWriteInvalidation(t *testing.T) {
	s := newSys(t, 3)
	base := s.Base()
	err := run(s, func(th *Thread) {
		if th.Host() == 0 {
			th.WriteU32(base, 1)
		}
		th.Barrier()
		_ = th.ReadU32(base) // everyone caches page 0
		th.Barrier()
		if th.Host() == 2 {
			th.WriteU32(base, 2)
		}
		th.Barrier()
		if v := th.ReadU32(base); v != 2 {
			t.Errorf("host %d read %d, want 2", th.Host(), v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Invalidates == 0 {
		t.Fatal("no invalidations issued")
	}
}

// The structural comparison the paper is about: two variables 64 bytes
// apart ping-pong under Ivy's page granularity.
func TestFalseSharingIsStructural(t *testing.T) {
	s := newSys(t, 2)
	base := s.Base()
	err := run(s, func(th *Thread) {
		mine := base + uint64(th.Host()*64)
		for i := 0; i < 40; i++ {
			th.WriteU32(mine, uint32(i))
			th.Compute(600 * sim.Microsecond)
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().WriteFaults < 10 {
		t.Fatalf("write faults = %d, want many (page ping-pong)", s.Stats().WriteFaults)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Duration {
		s := newSys(t, 4)
		err := run(s, func(th *Thread) {
			for i := 0; i < 5; i++ {
				th.WriteU32(s.Base()+uint64(th.Host()*vm.PageSize), uint32(i))
				th.Barrier()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Elapsed()
	}
	if run() != run() {
		t.Fatal("nondeterministic")
	}
}

func TestQueuedCompetingRequests(t *testing.T) {
	s := newSys(t, 4)
	base := s.Base()
	err := run(s, func(th *Thread) {
		if th.Host() == 0 {
			th.WriteU32(base, 7)
		}
		th.Barrier()
		_ = th.ReadU32(base) // simultaneous requests collide at the manager
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Competing == 0 {
		t.Fatal("no competing requests recorded")
	}
}
