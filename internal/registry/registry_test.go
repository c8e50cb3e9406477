package registry_test

import (
	"fmt"
	"strings"
	"testing"

	"millipage/internal/check"
	"millipage/internal/cluster"
	"millipage/internal/core"
	"millipage/internal/registry"
	"millipage/internal/sim"
	"millipage/internal/trace"
)

// cell is what one run of the DRF agreement program is pinned to: the
// protocol counters, the virtual time it ended at, the events the engine
// executed and the events a trace recorder saw.
type cell struct {
	Totals  cluster.Totals
	Elapsed sim.Duration
	Events  uint64
	Traced  uint64
}

// pinned are check.DRF{Rounds: 3, LockReps: 2} at seed 1, SharedSize
// 64 KB, 8 views, per protocol/hosts at chunk level 1 and, with the
// /chunk4 suffix, 4. The chunk-1 Totals were recorded from Report at the
// commit before the four System types moved onto cluster.Lifecycle, when
// each protocol still counted these through its own accessors; the rest
// at the commit before Malloc, Barrier, Lock and Unlock moved into
// internal/cluster — the program mallocs on host 0 and locks and
// barriers from every host; the ivy cells when ivy became millipage's
// page-grain preset; lrc-mw's 2- and 8-host cells when every
// lrc-mw fault became one home fetch; millipage's 2- and 8-host cells when
// every directory request began to leave its requester translated; the
// millipage cells, and the events of every 2- and 8-host cell, when the
// directory became home-based by default and a busy host's sweeper began
// to fire its arrivals with one event a tick; lrc-mw's 2- and 8-host cells
// when lrc-mw began to home minipage id at HomeOf(id), and its /central
// cells, under HomeCentral, hold the 8-host values recorded before that,
// when host 0 homed every minipage because it allocated them all;
// lrc-mw/8/chunk4 again when a copy away from the home began to grow its
// twin over the bytes a chunk's later allocations add; the millipage and
// ivy 8-host cells when a minipage's readers began to share one read
// transaction at the home, which leaves more of them competing (readers
// served together stay in step onto the next minipage); the millipage and
// ivy 2- and 8-host cells when invalidation replies began to go to the
// writer, which reorders the 2-host run's lock hand-offs into one more
// invalidation; every cell when a host's messages to itself stopped
// crossing the wire and a home holding a copy began to source reads from
// it (host 0's own barrier and lock traffic moves even the 1-host cells);
// every lrc-mw cell, /central included, when a home's own writes stopped
// taking twins and a release stopped waiting for its diffs' acks (lrc-mw/8/chunk4
// reads one invalidation more); the millipage and ivy 2- and 8-host cells
// when a read under a lock began to be served exclusive, so that the
// critical section's write raises its copy with no message (every one
// faster, with fewer invalidations); lrc-mw's 2- and 8-host cells, /central
// included, when its fetch became a read whose reply charges the install
// of its bytes (lrc-mw/8 fires three events more).
// A protocol that reports anything else has changed behaviour, not just
// shape. The "lrc" alias's cells must match lrc-mw's.
var pinned = map[string]cell{
	"millipage/1":        {cluster.Totals{BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 2, ViewsUsed: 2, BytesAllocated: 128}, 888648, 28, 48},
	"millipage/1/chunk4": {cluster.Totals{BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 1, ViewsUsed: 1, BytesAllocated: 128}, 888648, 28, 48},
	"millipage/2":        {cluster.Totals{Invalidations: 6, ExclusiveReads: 1, BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 3, ViewsUsed: 3, BytesAllocated: 192}, 3321540, 586, 273},
	"millipage/2/chunk4": {cluster.Totals{Invalidations: 4, CompetingRequests: 2, ExclusiveReads: 2, BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 1, ViewsUsed: 1, BytesAllocated: 192}, 3598432, 452, 242},
	"millipage/8":        {cluster.Totals{Invalidations: 120, CompetingRequests: 142, ExclusiveReads: 7, BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 9, ViewsUsed: 8, BytesAllocated: 576}, 14182250, 7942, 3009},
	"millipage/8/chunk4": {cluster.Totals{Invalidations: 36, CompetingRequests: 59, ExclusiveReads: 7, BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 3, ViewsUsed: 3, BytesAllocated: 576}, 10979749, 3829, 1449},
	"ivy/1":              {cluster.Totals{BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 1, ViewsUsed: 1, BytesAllocated: 4096}, 888648, 28, 48},
	"ivy/1/chunk4":       {cluster.Totals{BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 1, ViewsUsed: 1, BytesAllocated: 4096}, 888648, 28, 48},
	"ivy/2":              {cluster.Totals{Invalidations: 4, CompetingRequests: 2, ExclusiveReads: 2, BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 1, ViewsUsed: 1, BytesAllocated: 4096}, 4496352, 438, 242},
	"ivy/2/chunk4":       {cluster.Totals{Invalidations: 4, CompetingRequests: 2, ExclusiveReads: 2, BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 1, ViewsUsed: 1, BytesAllocated: 4096}, 4496352, 438, 242},
	"ivy/8":              {cluster.Totals{Invalidations: 28, CompetingRequests: 44, ExclusiveReads: 8, BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 1, ViewsUsed: 1, BytesAllocated: 4096}, 16330960, 2966, 1214},
	"ivy/8/chunk4":       {cluster.Totals{Invalidations: 28, CompetingRequests: 44, ExclusiveReads: 8, BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 1, ViewsUsed: 1, BytesAllocated: 4096}, 16330960, 2966, 1214},
	"lrc-mw/1":           {cluster.Totals{BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 2, ViewsUsed: 2, BytesAllocated: 128}, 1200648, 28, 55},
	"lrc-mw/1/chunk4":    {cluster.Totals{BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 1, ViewsUsed: 1, BytesAllocated: 128}, 1188648, 28, 55},
	"lrc-mw/2":           {cluster.Totals{Invalidations: 4, BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 3, ViewsUsed: 3, BytesAllocated: 192}, 2326021, 356, 160},
	"lrc-mw/2/chunk4":    {cluster.Totals{Invalidations: 5, BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 1, ViewsUsed: 1, BytesAllocated: 192}, 2666857, 296, 154},
	"lrc-mw/8":           {cluster.Totals{Invalidations: 116, BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 9, ViewsUsed: 8, BytesAllocated: 576}, 11093332, 4608, 1574},
	"lrc-mw/8/chunk4":    {cluster.Totals{Invalidations: 50, BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 3, ViewsUsed: 3, BytesAllocated: 576}, 7796341, 2550, 923},

	"lrc-mw/8/central":        {cluster.Totals{Invalidations: 111, BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 9, ViewsUsed: 8, BytesAllocated: 576}, 10004159, 4627, 1540},
	"lrc-mw/8/chunk4/central": {cluster.Totals{Invalidations: 48, BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 3, ViewsUsed: 3, BytesAllocated: 576}, 7640261, 2516, 910},
}

// TestEveryProtocolBuildsRunsAndCounts: every registered name, and the
// "lrc" alias, builds at 1, 2 and 8 hosts and chunk levels 1 and 4, runs
// the DRF agreement program to its oracle, and reports the pinned cell of
// the protocol it names; lrc-mw's two /central cells do so under
// HomeCentral.
func TestEveryProtocolBuildsRunsAndCounts(t *testing.T) {
	if got := len(registry.Names())*3*2 + 2; got != len(pinned) {
		t.Fatalf("%d protocol x host x chunk cells and 2 central ones, %d pinned: pin the new protocol's cells", got, len(pinned))
	}
	for _, name := range append(registry.Names(), "lrc") {
		spec, _ := registry.Lookup(name)
		for _, hosts := range []int{1, 2, 8} {
			for _, chunk := range []int{1, 4} {
				id, pin := fmt.Sprintf("%s/%d", name, hosts), fmt.Sprintf("%s/%d", spec.Name, hosts)
				if chunk != 1 {
					id += fmt.Sprintf("/chunk%d", chunk)
					pin += fmt.Sprintf("/chunk%d", chunk)
				}
				t.Run(id, func(t *testing.T) { runPinned(t, name, hosts, chunk, nil, pin) })
			}
		}
	}
	for _, c := range []struct {
		pin   string
		chunk int
	}{{"lrc-mw/8/central", 1}, {"lrc-mw/8/chunk4/central", 4}} {
		t.Run(c.pin, func(t *testing.T) { runPinned(t, "lrc-mw", 8, c.chunk, cluster.HomeCentral, c.pin) })
	}
}

// runPinned runs the DRF agreement program under protocol name at the
// given hosts, chunk level and placement, and checks it against pinned[pin].
func runPinned(t *testing.T, name string, hosts, chunk int, homeOf func(id, hosts int) int, pin string) {
	rec := trace.NewRecorder(16)
	sys, err := registry.New(name, registry.Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8,
		ChunkLevel: chunk, Seed: 1, HomeOf: homeOf, Trace: rec})
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
	rt := sys.Runtime()
	got := cell{sys.Totals(), rt.Elapsed(), rt.Eng.Counters().Events, rec.Total()}
	if got != pinned[pin] {
		t.Fatalf("got  %+v\nwant %+v", got, pinned[pin])
	}
}

// TestOptionMatrix: every registered protocol crossed with every option
// beyond the common core either builds and runs with the option in force,
// or is refused with an error naming the field — never accepted and
// ignored. In force is observed, not assumed: a page grain packs the two
// cells into one sharing unit, a HomeOf gets asked, two threads a host run
// twice the bodies. ivy's grain and HomeOf are its preset, so it refuses
// both. The "lrc" alias answers as lrc-mw does.
func TestOptionMatrix(t *testing.T) {
	const hosts = 3
	asked := 0
	homeOf := func(id, n int) int { asked++; return id % n }
	options := []struct {
		name    string
		fields  []string // a refusal names one of them
		set     func(o *registry.Options)
		inForce func(tot cluster.Totals, bodies int) bool
	}{
		{"grain-page", []string{"Grain"}, func(o *registry.Options) { o.Grain = core.GrainPage },
			func(tot cluster.Totals, _ int) bool { return tot.Minipages == 1 }},
		{"home-of", []string{"HomeOf"}, func(o *registry.Options) { o.HomeOf = homeOf },
			func(cluster.Totals, int) bool { return asked > 0 }},
		{"two-threads-a-host", []string{"ThreadsPerHost"}, func(o *registry.Options) { o.ThreadsPerHost = 2 },
			func(_ cluster.Totals, bodies int) bool { return bodies == 2*hosts }},
	}
	for _, name := range append(registry.Names(), "lrc") {
		for _, oc := range options {
			t.Run(name+"/"+oc.name, func(t *testing.T) {
				opt := registry.Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8, Seed: 1}
				oc.set(&opt)
				asked = 0
				sys, err := registry.New(name, opt)
				if err != nil {
					for _, f := range oc.fields {
						if strings.Contains(err.Error(), f) {
							return
						}
					}
					t.Errorf("refused with %q, which names none of %v", err, oc.fields)
					return
				}
				var cells [2]uint64
				bodies := 0
				err = sys.Run(func(w cluster.AppThread) {
					if w.ThreadID() == 0 {
						cells[0], cells[1] = w.Malloc(64), w.Malloc(64)
						w.WriteU32(cells[0], 0)
					}
					w.Barrier()
					w.Lock(1)
					w.WriteU32(cells[0], w.ReadU32(cells[0])+1)
					w.WriteU32(cells[1], uint32(w.ThreadID()))
					w.Unlock(1)
					w.Barrier()
					if got := w.ReadU32(cells[0]); got != uint32(w.NumThreads()) {
						t.Errorf("thread %d reads %d increments of %d", w.ThreadID(), got, w.NumThreads())
					}
					bodies++
				})
				if err != nil {
					t.Fatal(err)
				}
				if !oc.inForce(sys.Totals(), bodies) {
					t.Errorf("accepted and ignored: %+v after %d bodies, HomeOf asked %d times", sys.Totals(), bodies, asked)
				}
			})
		}
	}
}

func TestLookup(t *testing.T) {
	for name, want := range map[string]string{"": "millipage", "Millipage": "millipage", "LRC-MW": "lrc-mw", "ivy": "ivy", "LRC": "lrc-mw"} {
		sp, err := registry.Lookup(name)
		if err != nil || sp.Name != want {
			t.Errorf("Lookup(%q) = %q, %v; want %q", name, sp.Name, err, want)
		}
	}
	// The consistency contract is the registry's to state: SC for the two
	// invalidation protocols, DRF-SC for the release-consistent one.
	for name, sc := range map[string]bool{"millipage": true, "ivy": true, "lrc-mw": false} {
		if sp, _ := registry.Lookup(name); sp.SC != sc {
			t.Errorf("%s: SC = %v, want %v", name, sp.SC, sc)
		}
	}
	_, err := registry.New("treadmarks", registry.Options{Hosts: 1, SharedSize: 4096})
	if err == nil {
		t.Fatal("unknown protocol built")
	}
	if want := `unknown protocol "treadmarks" (want one of millipage, ivy, lrc-mw)`; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	if sys, err := registry.New("lrc", registry.Options{Hosts: 0, SharedSize: 4096}); err == nil || sys != nil {
		t.Fatalf("New with a bad option = %v, %v; want a nil System and an error", sys, err)
	}
}

// TestLRCIsAnAliasOfLRCMW: "lrc" builds lrc-mw, so one run of the DRF
// agreement program ends at the same virtual time with the same counters
// under either name.
func TestLRCIsAnAliasOfLRCMW(t *testing.T) {
	var got [2]cell
	for i, name := range []string{"lrc", "lrc-mw"} {
		sys, err := registry.New(name, registry.Options{Hosts: 4, SharedSize: 1 << 16, Views: 8, ChunkLevel: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run((&check.DRF{Hosts: 4, Rounds: 3, LockReps: 2}).Body); err != nil {
			t.Fatal(err)
		}
		got[i] = cell{Totals: sys.Totals(), Elapsed: sys.Runtime().Elapsed()}
	}
	if got[0] != got[1] {
		t.Fatalf("lrc %+v, lrc-mw %+v", got[0], got[1])
	}
}
