package bench

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"millipage/internal/apps"
	"millipage/internal/registry"
)

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"access fault", "26.0 us", "MPT lookup", "4 KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFetchCostsInPaperBallpark(t *testing.T) {
	for _, pl := range Placements("millipage") {
		t.Run(pl.Name, func(t *testing.T) {
			d, err := measureReadFetch(128, pl.Central)
			if err != nil {
				t.Fatal(err)
			}
			us := d.Microseconds()
			// Paper: 204 us. Accept a generous band; the trend tests are below.
			if us < 120 || us > 300 {
				t.Fatalf("128B read fetch = %.0fus, want within [120,300] (paper 204)", us)
			}
			d4k, err := measureReadFetch(4096, pl.Central)
			if err != nil {
				t.Fatal(err)
			}
			if d4k <= d {
				t.Fatalf("4KB fetch (%v) not slower than 128B fetch (%v)", d4k, d)
			}
		})
	}
}

func TestWriteFetchGrowsWithCopies(t *testing.T) {
	for _, pl := range Placements("millipage") {
		t.Run(pl.Name, func(t *testing.T) {
			w1, err := measureWriteFetch(128, 1, pl.Central)
			if err != nil {
				t.Fatal(err)
			}
			w7, err := measureWriteFetch(128, 7, pl.Central)
			if err != nil {
				t.Fatal(err)
			}
			if w7 <= w1 {
				t.Fatalf("write fetch with 7 copies (%v) not slower than with 1 (%v)", w7, w1)
			}
		})
	}
}

func TestBarrierLinearInHosts(t *testing.T) {
	b1, err := measureBarrier(1)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := measureBarrier(8)
	if err != nil {
		t.Fatal(err)
	}
	if b8 <= b1 {
		t.Fatalf("8-host barrier (%v) not slower than 1-host (%v)", b8, b1)
	}
	// Paper: 59-153 us across 1..8 hosts.
	if us := b8.Microseconds(); us < 90 || us > 250 {
		t.Fatalf("8-host barrier = %.0fus, want within [90,250] (paper 153)", us)
	}
	// Past the paper's testbed the barrier combines up a fan-in-8 tree:
	// three levels at 256 hosts, not 256 arrivals into one service thread.
	b256, err := measureBarrier(256)
	if err != nil {
		t.Fatal(err)
	}
	if b256 > 3*b8 {
		t.Fatalf("256-host barrier (%v) over 3x the 8-host one (%v)", b256, b8)
	}
}

func TestLockUnlockInPaperBand(t *testing.T) {
	d, err := measureLockUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if us := d.Microseconds(); us < 40 || us > 120 {
		t.Fatalf("lock+unlock = %.0fus, want within [40,120] (paper 67-80)", us)
	}
}

func TestFigure5ShapeSmallGrid(t *testing.T) {
	// A reduced grid: one below-break cell and one beyond-break cell.
	// Warmed-up passes: Fast mode skips the warmup and would count
	// compulsory PTE misses as slowdown.
	cfg := Figure5Config{
		Sizes: []int{4 << 20},
		Views: []int{16, 256},
	}
	pts := Figure5(cfg)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	below, beyond := pts[0], pts[1]
	if below.Slowdown > 1.15 {
		t.Fatalf("below-break slowdown = %.2f, want ~1", below.Slowdown)
	}
	if beyond.Slowdown < 1.5*below.Slowdown {
		t.Fatalf("beyond-break slowdown %.2f not clearly above below-break %.2f",
			beyond.Slowdown, below.Slowdown)
	}
	var buf bytes.Buffer
	WriteFigure5(&buf, cfg, pts)
	if !strings.Contains(buf.String(), "breaking points") {
		t.Fatal("WriteFigure5 missing breaking-point annotation")
	}
}

func TestFigure6SmallScale(t *testing.T) {
	cfg := Figure6Config{Hosts: []int{1, 2}, Scale: 0.02, Seed: 1, ChunkWATER: 2, Only: "IS"}
	runs, err := Figure6(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(runs))
	}
	if runs[1].Speedup <= 1.0 {
		t.Fatalf("IS 2-host speedup = %.2f, want > 1", runs[1].Speedup)
	}
	var buf bytes.Buffer
	WriteFigure6(&buf, cfg, runs)
	if !strings.Contains(buf.String(), "IS") {
		t.Fatal("WriteFigure6 missing IS row")
	}
}

// TestFigure6RejectsUnknownOnly: an Only that names no suite application
// is an error listing the five, raised before anything runs — it used to
// run nothing and print empty tables.
func TestFigure6RejectsUnknownOnly(t *testing.T) {
	var progress bytes.Buffer
	runs, err := Figure6(Figure6Config{Hosts: []int{1}, Scale: 0.02, Seed: 1, Only: "NOPE"}, &progress)
	if err == nil || runs != nil || progress.Len() != 0 {
		t.Fatalf("Figure6(Only: NOPE) = %d runs, %v, progress %q; want an error before any run", len(runs), err, progress.String())
	}
	for _, app := range apps.Suite() {
		if !strings.Contains(err.Error(), app.Name) {
			t.Errorf("error %q does not list %s", err, app.Name)
		}
	}
	if cfg, err := (Figure6Config{Only: "LU"}).Checked(); err != nil || cfg.Scale != 1.0 {
		t.Errorf("Checked(Only: LU, Scale: 0) = scale %v, %v; want the paper's 1.0 and no error", cfg.Scale, err)
	}
}

func TestFigure7SmallScale(t *testing.T) {
	cfg := Figure7Config{Hosts: []int{4}, Levels: []int{1, 4, 0}, Scale: 0.04, Seed: 1}
	pts, err := Figure7(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Chunking must reduce faults relative to unchunked.
	if pts[1].Faults >= pts[0].Faults {
		t.Fatalf("chunk-4 faults (%d) not below unchunked (%d)", pts[1].Faults, pts[0].Faults)
	}
	// Exactly one point per host count carries efficiency 1.0 (the best).
	best := 0
	for _, p := range pts {
		if p.Efficiency > 0.999 && p.Efficiency < 1.001 {
			best++
		}
	}
	if best < 1 {
		t.Fatalf("no best-efficiency point: %+v", pts)
	}
	var buf bytes.Buffer
	WriteFigure7(&buf, cfg, pts)
	if !strings.Contains(buf.String(), "chunking") {
		t.Fatal("WriteFigure7 missing annotation")
	}
}

func TestDiffCostsOutput(t *testing.T) {
	var buf bytes.Buffer
	DiffCosts(&buf)
	if !strings.Contains(buf.String(), "250.0 us") {
		t.Fatalf("DiffCosts missing the paper's 250us point:\n%s", buf.String())
	}
}

// TestCalendarStaysSmall pins the assumption the engine's calendar rests
// on: its insertion scan is O(pending events), which is the right trade
// only while the calendar holds tens to hundreds of events (past
// about a thousand a heap wins — DESIGN.md §6). Pending events scale
// with hosts and in-flight timers, so the widest and the lossiest pinned
// shapes are the ones that would show traffic outgrowing it.
func TestCalendarStaysSmall(t *testing.T) {
	for _, name := range []string{"E2ESOR8", "E2ESOR64", "E2ESOR256", "E2EServe8", "E2EServeLossy"} {
		run, _ := e2eRun(name)
		c, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Events == 0 || c.Switches == 0 || c.Switches > c.Events {
			t.Errorf("%s: implausible engine counters %+v", name, c)
		}
		if c.MaxPending > 1024 {
			t.Errorf("%s: %d events pending at once, more than the 1024 the sorted calendar is sized for", name, c.MaxPending)
		}
		t.Logf("%-13s events=%d switches=%d sleep_fast=%d max_pending=%d coroswitches=%d hops=%d", name, c.Events, c.Switches, c.SleepFast, c.MaxPending, c.Coroswitches, c.Hops)
	}
}

// suiteCell is one application under one protocol.
type suiteCell struct {
	app      apps.App
	protocol string
}

// equivMatrix is the reduced suite x protocol matrix `-short` (the -race
// CI leg) runs: one cell per protocol, and one under the "lrc" alias.
var equivMatrix = []suiteCell{
	{apps.App{Name: "SOR", Run: apps.RunSOR}, "millipage"},
	{apps.App{Name: "TSP", Run: apps.RunTSP}, "ivy"},
	{apps.App{Name: "IS", Run: apps.RunIS}, "lrc"},
	{apps.App{Name: "WATER", Run: apps.RunWATER}, "lrc-mw"},
}

// TestSuiteEveryProtocolChecksAndRepeats is the one place all five
// applications run under every protocol, and the "lrc" alias: at 8 hosts
// with idealized timers every cell passes its own verification, and a
// second run reproduces the first's report and timed section exactly.
func TestSuiteEveryProtocolChecksAndRepeats(t *testing.T) {
	cells := equivMatrix
	if !testing.Short() {
		cells = nil
		for _, app := range apps.Suite() {
			for _, protocol := range append(registry.Names(), "lrc") {
				cells = append(cells, suiteCell{app, protocol})
			}
		}
	}
	for _, c := range cells {
		t.Run(c.app.Name+"/"+c.protocol, func(t *testing.T) {
			p := apps.Params{Protocol: c.protocol, Hosts: 8, Scale: 0.05, Seed: 1, PerfectTimers: true}
			first, err := c.app.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Checked {
				t.Errorf("not checked: checksum %v", first.Check)
			}
			again, err := c.app.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if again.Timed != first.Timed {
				t.Errorf("timed section: %v, then %v", first.Timed, again.Timed)
			}
			if !reflect.DeepEqual(again.Report, first.Report) {
				t.Errorf("reports differ between two runs:\nfirst:  %+v\nsecond: %+v", first.Report, again.Report)
			}
		})
	}
}
