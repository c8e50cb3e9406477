package registry_test

import (
	"fmt"
	"strings"
	"testing"

	"millipage/internal/check"
	"millipage/internal/cluster"
	"millipage/internal/core"
	"millipage/internal/pins"
	"millipage/internal/registry"
	"millipage/internal/trace"
)

// layout is the oracle half of each cell of check.DRF{Rounds: 3,
// LockReps: 2} at seed 1, SharedSize 64 KB, 8 views, per protocol/hosts at
// chunk level 1 and, with the /chunk4 suffix, 4: the barriers and lock
// acquisitions the program makes and the minipages, views and bytes its
// allocations take. The schedule half — invalidations, competing requests,
// exclusive reads, elapsed virtual time, engine events and traced events —
// is pinned (package pins). The "lrc" alias's cells are lrc-mw's.
var layout = map[string]cluster.Totals{
	"millipage/1":        {BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 2, ViewsUsed: 2, BytesAllocated: 128},
	"millipage/1/chunk4": {BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 1, ViewsUsed: 1, BytesAllocated: 128},
	"millipage/2":        {BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 3, ViewsUsed: 3, BytesAllocated: 192},
	"millipage/2/chunk4": {BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 1, ViewsUsed: 1, BytesAllocated: 192},
	"millipage/8":        {BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 9, ViewsUsed: 8, BytesAllocated: 576},
	"millipage/8/chunk4": {BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 3, ViewsUsed: 3, BytesAllocated: 576},
	"ivy/1":              {BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 1, ViewsUsed: 1, BytesAllocated: 4096},
	"ivy/1/chunk4":       {BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 1, ViewsUsed: 1, BytesAllocated: 4096},
	"ivy/2":              {BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 1, ViewsUsed: 1, BytesAllocated: 4096},
	"ivy/2/chunk4":       {BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 1, ViewsUsed: 1, BytesAllocated: 4096},
	"ivy/8":              {BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 1, ViewsUsed: 1, BytesAllocated: 4096},
	"ivy/8/chunk4":       {BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 1, ViewsUsed: 1, BytesAllocated: 4096},
	"lrc-mw/1":           {BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 2, ViewsUsed: 2, BytesAllocated: 128},
	"lrc-mw/1/chunk4":    {BarrierEpisodes: 9, LockAcquisitions: 2, Minipages: 1, ViewsUsed: 1, BytesAllocated: 128},
	"lrc-mw/2":           {BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 3, ViewsUsed: 3, BytesAllocated: 192},
	"lrc-mw/2/chunk4":    {BarrierEpisodes: 9, LockAcquisitions: 4, Minipages: 1, ViewsUsed: 1, BytesAllocated: 192},
	"lrc-mw/8":           {BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 9, ViewsUsed: 8, BytesAllocated: 576},
	"lrc-mw/8/chunk4":    {BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 3, ViewsUsed: 3, BytesAllocated: 576},

	"lrc-mw/8/central":        {BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 9, ViewsUsed: 8, BytesAllocated: 576},
	"lrc-mw/8/chunk4/central": {BarrierEpisodes: 9, LockAcquisitions: 16, Minipages: 3, ViewsUsed: 3, BytesAllocated: 576},
}

// TestEveryProtocolBuildsRunsAndCounts: every registered name, and the
// "lrc" alias, builds at 1, 2 and 8 hosts and chunk levels 1 and 4, runs
// the DRF agreement program to its oracle, and reports the layout and the
// pinned schedule of the cell of the protocol it names; lrc-mw's two
// /central cells do so under HomeCentral.
func TestEveryProtocolBuildsRunsAndCounts(t *testing.T) {
	if got := len(registry.Names())*3*2 + 2; got != len(layout) {
		t.Fatalf("%d protocol x host x chunk cells and 2 central ones, %d laid out: add the new protocol's cells", got, len(layout))
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
// given hosts, chunk level and placement, and checks it against cell pin.
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
	tot, rt := sys.Totals(), sys.Runtime()
	lay := cluster.Totals{BarrierEpisodes: tot.BarrierEpisodes, LockAcquisitions: tot.LockAcquisitions,
		Minipages: tot.Minipages, ViewsUsed: tot.ViewsUsed, BytesAllocated: tot.BytesAllocated}
	if lay != layout[pin] {
		t.Errorf("layout %+v, want %+v", lay, layout[pin])
	}
	pins.Check(t, "EveryProtocol/"+pin, fmt.Sprintf("invalidations=%d competing=%d exclusive=%d elapsed=%d events=%d traced=%d",
		tot.Invalidations, tot.CompetingRequests, tot.ExclusiveReads, int64(rt.Elapsed()), rt.Eng.Counters().Events, rec.Total()))
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

// TestViewsBound: every protocol runs at core.MaxViews views with the
// views in force — that many small allocations share one page, each in a
// view of its own, except under ivy's page grain — and refuses one view
// more with an error naming Views, before anything runs.
func TestViewsBound(t *testing.T) {
	for _, name := range append(registry.Names(), "lrc") {
		t.Run(name, func(t *testing.T) {
			opt := registry.Options{Hosts: 3, SharedSize: 1 << 16, Views: core.MaxViews + 1, Seed: 1}
			if _, err := registry.New(name, opt); err == nil || !strings.Contains(err.Error(), "Views") {
				t.Fatalf("%d views: %v, want a refusal naming Views", opt.Views, err)
			}
			opt.Views = core.MaxViews
			sys, err := registry.New(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			cells := make([]uint64, core.MaxViews)
			err = sys.Run(func(w cluster.AppThread) {
				if w.ThreadID() == 0 {
					for i := range cells {
						cells[i] = w.Malloc(64)
						w.WriteU32(cells[i], uint32(i+1))
					}
				}
				w.Barrier()
				for i, c := range cells {
					if got := w.ReadU32(c); got != uint32(i+1) {
						t.Errorf("thread %d reads %d in cell %d", w.ThreadID(), got, i)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			want := core.MaxViews
			if name == "ivy" {
				want = 1
			}
			if got := sys.Totals().ViewsUsed; got != want {
				t.Errorf("ViewsUsed = %d, want %d", got, want)
			}
		})
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
	var got [2]string
	for i, name := range []string{"lrc", "lrc-mw"} {
		sys, err := registry.New(name, registry.Options{Hosts: 4, SharedSize: 1 << 16, Views: 8, ChunkLevel: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run((&check.DRF{Hosts: 4, Rounds: 3, LockReps: 2}).Body); err != nil {
			t.Fatal(err)
		}
		got[i] = fmt.Sprintf("%+v elapsed %d", sys.Totals(), int64(sys.Runtime().Elapsed()))
	}
	if got[0] != got[1] {
		t.Fatalf("lrc %s, lrc-mw %s", got[0], got[1])
	}
}
