package registry_test

import (
	"fmt"
	"strings"
	"testing"

	"millipage/internal/check"
	"millipage/internal/cluster"
	"millipage/internal/registry"
)

// pinned are the Totals of check.DRF{Rounds: 3, LockReps: 2} at seed 1,
// SharedSize 64 KB, 8 views — recorded from Report at the commit before
// the four System types moved onto cluster.Lifecycle, when each protocol
// still counted these through its own accessors. A protocol that reports
// anything else has changed behaviour, not just shape.
var pinned = map[string]cluster.Totals{
	"millipage/1": {BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 2, ViewsUsed: 2, BytesAllocated: 128},
	"millipage/2": {Invalidations: 8, BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 3, ViewsUsed: 3, BytesAllocated: 192},
	"millipage/8": {Invalidations: 128, CompetingRequests: 81, BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 9, ViewsUsed: 8, BytesAllocated: 576},
	"ivy/1":       {BarrierEpisodes: 9, LockAcquisitions: 2},
	"ivy/2":       {Invalidations: 6, CompetingRequests: 2, BarrierEpisodes: 9, LockAcquisitions: 4},
	"ivy/8":       {Invalidations: 36, CompetingRequests: 44, BarrierEpisodes: 9, LockAcquisitions: 16},
	"lrc/1":       {BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 2, ViewsUsed: 2, BytesAllocated: 128},
	"lrc/2":       {BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 3, ViewsUsed: 3, BytesAllocated: 192},
	"lrc/8":       {BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 9, ViewsUsed: 8, BytesAllocated: 576},
	"lrc-mw/1":    {BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 2, ViewsUsed: 2, BytesAllocated: 128},
	"lrc-mw/2":    {Invalidations: 3, BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 3, ViewsUsed: 3, BytesAllocated: 192},
	"lrc-mw/8":    {Invalidations: 111, BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 9, ViewsUsed: 8, BytesAllocated: 576},
}

// TestEveryProtocolBuildsRunsAndCounts: every registered name builds at
// 1, 2 and 8 hosts, runs the DRF agreement program to its oracle, and
// reports the pinned Totals.
func TestEveryProtocolBuildsRunsAndCounts(t *testing.T) {
	if got := len(registry.Names()) * 3; got != len(pinned) {
		t.Fatalf("%d protocol x host cells, %d pinned: pin the new protocol's Totals", got, len(pinned))
	}
	for _, name := range registry.Names() {
		for _, hosts := range []int{1, 2, 8} {
			cell := fmt.Sprintf("%s/%d", name, hosts)
			t.Run(cell, func(t *testing.T) {
				sys, err := registry.New(name, registry.Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				wl := &check.DRF{Hosts: hosts, Rounds: 3, LockReps: 2}
				if err := sys.Run(wl.Body); err != nil {
					t.Fatal(err)
				}
				if err := wl.Err(); err != nil {
					t.Fatal(err)
				}
				if got := sys.Totals(); got != pinned[cell] {
					t.Fatalf("Totals = %+v\n        want %+v", got, pinned[cell])
				}
			})
		}
	}
}

func TestLookup(t *testing.T) {
	for name, want := range map[string]string{"": "millipage", "Millipage": "millipage", "LRC-MW": "lrc-mw", "ivy": "ivy"} {
		sp, err := registry.Lookup(name)
		if err != nil || sp.Name != want {
			t.Errorf("Lookup(%q) = %q, %v; want %q", name, sp.Name, err, want)
		}
	}
	// The consistency contract is the registry's to state: SC for the two
	// invalidation protocols, DRF-SC for the two release-consistent ones.
	for name, sc := range map[string]bool{"millipage": true, "ivy": true, "lrc": false, "lrc-mw": false} {
		if sp, _ := registry.Lookup(name); sp.SC != sc {
			t.Errorf("%s: SC = %v, want %v", name, sp.SC, sc)
		}
	}
	_, err := registry.New("treadmarks", registry.Options{Hosts: 1, SharedSize: 4096})
	if err == nil {
		t.Fatal("unknown protocol built")
	}
	for _, name := range registry.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
	if sys, err := registry.New("lrc", registry.Options{Hosts: 0, SharedSize: 4096}); err == nil || sys != nil {
		t.Fatalf("New with a bad option = %v, %v; want a nil System and an error", sys, err)
	}
}
