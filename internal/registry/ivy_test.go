package registry_test

import (
	"testing"

	"millipage/internal/dsm"
	"millipage/internal/registry"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// newIvy builds the ivy preset: millipage at page grain, page p's
// directory at host p mod hosts.
func newIvy(t *testing.T, hosts int) *dsm.System {
	t.Helper()
	spec, _ := registry.Lookup("ivy")
	sys, err := spec.New(registry.Options{Hosts: hosts, SharedSize: 1 << 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestIvyDistributedManagers: page p's directory is served at host p % N
// (Li & Hudak's fixed distributed manager) and nowhere else, every shard
// serves the reads of its pages, and an allocation spanning pages leaves
// every page writable at its allocator.
func TestIvyDistributedManagers(t *testing.T) {
	const hosts, pages = 4, 8
	s := newIvy(t, hosts)
	var va uint64
	run(t, s, func(w *dsm.Thread) {
		if w.Host() == 0 {
			va = w.Malloc(pages * vm.PageSize)
			for p := 0; p < pages; p++ {
				if prot, _ := s.Host(0).AS.ProtOf(va + uint64(p*vm.PageSize)); prot != vm.ReadWrite {
					t.Errorf("page %d is %v at its allocator, want ReadWrite", p, prot)
				}
				w.WriteU32(va+uint64(p*vm.PageSize), uint32(p))
			}
		}
		w.Barrier()
		for p := 0; p < pages; p++ {
			if got := w.ReadU32(va + uint64(p*vm.PageSize)); got != uint32(p) {
				t.Errorf("host %d reads %d on page %d", w.Host(), got, p)
			}
		}
		w.Barrier()
	})
	mpt := s.MPT()
	if mpt.NumMinipages() != pages {
		t.Fatalf("%d minipages for %d pages", mpt.NumMinipages(), pages)
	}
	for id := 0; id < pages; id++ {
		mp, _ := mpt.ByID(id)
		home := (mp.Off / vm.PageSize) % hosts
		for h := 0; h < hosts; h++ {
			dir := s.Host(h).Directory()
			if served := id < len(dir) && dir[id] != nil; served != (h == home) {
				t.Errorf("page %d served at host %d = %v, want only at host %d", mp.Off/vm.PageSize, h, served, home)
			}
		}
	}
	for h := 0; h < hosts; h++ {
		if s.Host(h).Stats.ReadReqs == 0 {
			t.Errorf("host %d's shard served no reads", h)
		}
	}
}

// TestIvyFalseSharingIsStructural: the comparison the paper is about. Two
// variables 64 bytes apart share a page under ivy, which ping-pongs between
// their writers; millipage gives each its own minipage, and host 1 faults
// once to take its variable over from the allocator.
func TestIvyFalseSharingIsStructural(t *testing.T) {
	for _, pc := range []struct {
		proto string
		want  func(writeFaults uint64) bool
	}{
		{"ivy", func(wf uint64) bool { return wf >= 10 }},
		{"millipage", func(wf uint64) bool { return wf == 1 }},
	} {
		spec, _ := registry.Lookup(pc.proto)
		sys, err := spec.New(registry.Options{Hosts: 2, SharedSize: 1 << 16, Views: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var vars [2]uint64
		run(t, sys, func(w *dsm.Thread) {
			if w.Host() == 0 {
				vars[0], vars[1] = w.Malloc(64), w.Malloc(64)
			}
			w.Barrier()
			for i := 0; i < 40; i++ {
				w.WriteU32(vars[w.Host()], uint32(i))
				w.Compute(600 * sim.Microsecond)
			}
			w.Barrier()
		})
		if wf := sys.Host(0).AS.WriteFaults + sys.Host(1).AS.WriteFaults; !pc.want(wf) {
			t.Errorf("%s: %d write faults", pc.proto, wf)
		}
	}
}

// TestIvyQueuedCompetingRequests: simultaneous reads of one page collide
// at its manager, and the ones behind the open transaction are counted.
func TestIvyQueuedCompetingRequests(t *testing.T) {
	s := newIvy(t, 4)
	var va uint64
	run(t, s, func(w *dsm.Thread) {
		if w.Host() == 0 {
			va = w.Malloc(64)
			w.WriteU32(va, 7)
		}
		w.Barrier()
		if got := w.ReadU32(va); got != 7 {
			t.Errorf("host %d reads %d", w.Host(), got)
		}
		w.Barrier()
	})
	if s.Totals().CompetingRequests == 0 {
		t.Fatal("no competing requests recorded")
	}
}
