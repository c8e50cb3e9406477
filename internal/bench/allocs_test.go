package bench

import (
	"testing"

	"millipage/internal/pins"
)

// must fails the test if err is not nil.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// benchPath is BENCH_sim.json at the repo root, which pins the benchmark
// rows: their allocation fences, their engine counters and the serving
// rows' fingerprints.
const benchPath = "../../BENCH_sim.json"

// pinnedReport returns the report at benchPath, skipping t if there is none.
func pinnedReport(t *testing.T) benchReport {
	t.Helper()
	r, err := readBenchReport(benchPath)
	must(t, err)
	if len(r.Benchmarks) == 0 {
		t.Skipf("no pinned report at %s", benchPath)
	}
	return r
}

// bytesFence is how far past its pinned bytes/op a footprint row may go.
const bytesFence = 1.25

// TestE2EAllocsRegression is the one gate on the end-to-end rows'
// deterministic cost columns: each row's run must stay within twice the
// allocs/op BENCH_sim.json pins for it, or within 1.25x of its bytes/op.
// Allocation counts are deterministic enough for a 2x fence (unlike
// wall-clock time, which shared CI boxes make unpinnable), and bytes/op
// repeat to within 0.1 %, so this catches a pooling or footprint
// regression before it shows up as a slow simulator. It runs full
// benchmarks, so -short skips it.
func TestE2EAllocsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full benchmarks")
	}
	rows := []struct {
		row     string
		bytes   bool   // fence bytes/op at bytesFence instead of allocs/op at 2x
		catches string // the regression this row is there for
	}{
		{"E2ESOR8", false, "the end-to-end acceptance workload: a leaked fast path, a pool gated off, " +
			"per-message garbage reintroduced"},
		{"E2EWATER8MW", false, "lrc-mw's protocol state, which no other row runs: every lock release closes an " +
			"interval whose notice is held for two barriers, so whatever is allocated per interval, per notice or " +
			"per (host, minipage) never reaches a freelist's steady state inside a run. Notice lists live in " +
			"per-epoch arenas, diff encodings in pooled buffers their flushes own, needs in one slab a host and " +
			"per-minipage state in one dense table; a twin, an encoding, a need or a notice list allocated per " +
			"release goes past the fence (a pooled " +
			"record and a map per interval, an earlier design, sat at 1.94x the pin this row had then)"},
		{"E2ESOR64", true, "the footprint gate: 64 hosts each map the whole shared image n+1 times and touch " +
			"little beyond their own band of rows, so bytes/op stays near the pin only while memory objects " +
			"are demand-zero and host state is sized by the cluster; an eagerly allocated image per host " +
			"(75 MB/op before they became sparse) multiplies by the host count, and so does every byte of a " +
			"page-table entry, whose dense table spans all n+1 views and their guard gaps: 4-byte entries " +
			"read about 1.40x this pin, and 8-byte entries with a 1,024-host copyset in every directory " +
			"entry 2.06x. Entry sizes are also pinned exactly (vm's TestPTEPacking, dsm's TestDirEntryFootprint)"},
		{"E2EServe8", false, "the serving path's steady state: the pin is setup-dominated (~1.2k allocations " +
			"for a 20k-op scenario), so per-op garbage on the GET/PUT hot loop — a boxed histogram add, an " +
			"interface escape in the generator, a per-response oracle allocation — multiplies past the fence"},
		{"E2EServeLossy", false, "the armed path (reliability layer on, every frame logged for retransmission, " +
			"two hosts crashing and recovering): one request, reply or frame record allocated per " +
			"operation instead of drawn from a freelist puts tens of thousands of objects on a pin of about " +
			"a thousand, which is what the path cost while pooling was switched off under a fault plan"},
	}
	pinned := map[string]PerfPoint{}
	for _, p := range pinnedReport(t).Benchmarks {
		pinned[p.Name] = p
	}
	for _, row := range rows {
		t.Run(row.row, func(t *testing.T) {
			m, err := measure(row.row)
			must(t, err)
			got, pin, unit := m.AllocsPerOp, pinned[row.row].AllocsPerOp, "objects"
			if row.bytes {
				got, pin, unit = m.BytesPerOp, pinned[row.row].BytesPerOp, "bytes"
			}
			if pin <= 0 {
				t.Fatalf("BENCH_sim.json has no %s/op pin for %s", unit, row.row)
			}
			fence := 2.0
			if row.bytes {
				fence = bytesFence
			}
			if float64(got) > fence*float64(pin) {
				t.Fatalf("%s allocates %d %s/op, more than %gx the pinned %d (%s)", row.row, got, unit, fence, pin, row.catches)
			}
		})
	}
}

// TestLedgerMeasureReproduces: two measurements of a ledger row agree in
// every column, so a re-record of BENCH_sim.json moves only the rows a
// change moved. Not under the race detector, which the ledger is never
// measured under.
func TestLedgerMeasureReproduces(t *testing.T) {
	if race {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	a, err := measure("E2EFalseShareMW")
	must(t, err)
	b, err := measure("E2EFalseShareMW")
	must(t, err)
	if a != b {
		t.Fatalf("two measurements differ:\n%+v\n%+v", a, b)
	}
}

// TestE2ECountersPinned holds the event engine to the event stream
// BENCH_sim.json recorded: every end-to-end row's run must fire exactly
// the pinned number of calendar events, process switches and engine-side
// hops, and pay exactly the pinned number of coroutine switches for them.
// The counts are pure functions of (program, seed), so an engine change
// that claims the same behaviour reproduces them; under UPDATE_PINS=1 the
// test rewrites the four columns of every row in place instead, if every
// bound below holds. No row may cost more than 1.8 coroswitches per
// process switch (2.0 is every switch bouncing through the Run goroutine
// again, as is a resume chain capped at one driver), except the scale-out
// rows (lockstepRows): threads a barrier releases in lockstep cost
// 2(n-1)/n whatever the discipline. Every row is held to the coroswitches
// it paid before a fault's ack closed its wait sequence
// (coroswitchesBeforeClose), which a chain-less engine, 2.0 on every row,
// exceeds, and to 0.50 of the process switches it made before the receive,
// block and call sequences moved into the engine (switchesBeforeHops),
// which a sequence that falls back to process code exceeds with
// events_per_op still equal. Events and hops have a ceiling of their own
// (eventsAndHops). The pinned rows are exactly the end-to-end runs, and a
// run that fails its own check fails the test, so no update records it.
func TestE2ECountersPinned(t *testing.T) {
	report := pinnedReport(t)
	pinned := map[string]bool{}
	for i := range report.Benchmarks {
		p := &report.Benchmarks[i]
		pinned[p.Name] = true
		run, err := e2eRun(p.Name)
		if err != nil {
			t.Errorf("BENCH_sim.json pins counters for %s: %v", p.Name, err)
			continue
		}
		c, err := run()
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if pins.Update() {
			p.EventsPerOp, p.SwitchesPerOp, p.CoroswitchesPerOp, p.HopsPerOp = c.Events, c.Switches, c.Coroswitches, c.Hops
		}
		if c.Events != p.EventsPerOp || c.Switches != p.SwitchesPerOp || c.Coroswitches != p.CoroswitchesPerOp || c.Hops != p.HopsPerOp {
			t.Errorf("%s: %d events / %d switches / %d coroswitches / %d hops, pinned %d / %d / %d / %d; %s",
				p.Name, c.Events, c.Switches, c.Coroswitches, c.Hops, p.EventsPerOp, p.SwitchesPerOp, p.CoroswitchesPerOp, p.HopsPerOp, rerecord(t))
		}
		ratio := float64(c.Coroswitches) / float64(c.Switches)
		before := switchesBeforeHops[p.Name]
		kept := float64(c.Switches) / float64(before)
		t.Logf("%-15s %.3f coroswitches per switch, %.3f of the %d switches before hops", p.Name, ratio, kept, before)
		if ratio > 1.8 && !lockstepRows[p.Name] {
			t.Errorf("%s: %.3f coroswitches per process switch, want at most 1.8", p.Name, ratio)
		}
		if ceiling := coroswitchesBeforeClose[p.Name]; ceiling == 0 || c.Coroswitches > ceiling {
			t.Errorf("%s: %d coroswitches, want at most the %d of the commit before the closing stage", p.Name, c.Coroswitches, ceiling)
		}
		if before == 0 || kept > 0.50 {
			t.Errorf("%s: %d process switches, want at most 0.50 x the %d of the commit before engine-side wait sequences", p.Name, c.Switches, before)
		}
		if ceil, ok := eventsAndHops[p.Name]; !ok || max(c.Events, p.EventsPerOp) > ceil.events || max(c.Hops, p.HopsPerOp) > ceil.hops {
			t.Errorf("%s: %d events and %d hops (pinned %d and %d), want at most the ceiling's %d and %d",
				p.Name, c.Events, c.Hops, p.EventsPerOp, p.HopsPerOp, ceil.events, ceil.hops)
		}
	}
	for _, r := range e2eRuns {
		if !pinned[r.name] {
			t.Errorf("BENCH_sim.json has no row for the end-to-end run %s; record one with\n\tgo run ./cmd/millipage bench", r.name)
		}
	}
	rewritePinned(t, report)
}

// rerecord says how to re-record t's rows of BENCH_sim.json.
func rerecord(t *testing.T) string {
	return "if the schedule moved on purpose, re-record with\n\tUPDATE_PINS=1 go test -count=1 -run '^" + t.Name() + "$' ./internal/bench/"
}

// rewritePinned writes report, as t re-recorded it, back to BENCH_sim.json
// under UPDATE_PINS=1, unless t failed.
func rewritePinned(t *testing.T, report benchReport) {
	if pins.Update() && !t.Failed() {
		must(t, writeBenchReport(benchPath, report))
	}
}

// eventsAndHops is the ceiling on every end-to-end row's events_per_op and
// hops_per_op: the clockless ratchet the host clock's drift needs, since
// the wall-clock gate compares each change only with its parent. A change
// that must add events or hops raises its row here by hand, in the same
// diff as the re-recorded pins, and says why; an update run never records
// a count above it.
var eventsAndHops = map[string]struct{ events, hops uint64 }{
	"E2ESOR8":         {94_088, 57_414},
	"E2EFalseShareMW": {2_802, 912},
	"E2EWATER8MW":     {42_162, 15_448},
	"E2ESOR64":        {187_422, 117_536},
	"E2ESOR256":       {386_064, 239_353},
	"E2EServe8":       {382_911, 221_106},
	"E2EServeLossy":   {399_375, 142_396},
}

// lockstepRows are the rows whose switches are all but all application
// threads released by a barrier in lockstep (TestE2ECountersPinned).
var lockstepRows = map[string]bool{"E2ESOR64": true, "E2ESOR256": true}

// coroswitchesBeforeClose is every end-to-end row's coroswitches_per_op
// at the commit before a fault's ack became the closing stage of its wait
// sequence, when the scale-out rows still read under 1.8 per switch.
// lrc-mw has no closing stage, so its two rows' entries are their own
// pins, lowered with them by hand.
var coroswitchesBeforeClose = map[string]uint64{
	"E2ESOR8":         8_256,
	"E2EFalseShareMW": 1_454,
	"E2EWATER8MW":     17_870,
	"E2ESOR64":        31_352,
	"E2ESOR256":       93_690,
	"E2EServe8":       50_816,
	"E2EServeLossy":   81_090,
}

// switchesBeforeHops is every end-to-end row's switches_per_op at the
// commit before engine-side wait sequences, when each Sleep and Wait of
// a receive, block or call was a switch into the process.
var switchesBeforeHops = map[string]uint64{
	"E2ESOR8":         52_379,
	"E2EFalseShareMW": 2_961,
	"E2EWATER8MW":     36_115,
	"E2ESOR64":        110_652,
	"E2ESOR256":       253_589,
	"E2EServe8":       233_325,
	"E2EServeLossy":   148_846,
}
