package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMsgHopAllocFree pins the clean message path's steady state: with
// pooled envelopes and tracing off, a full one-hop send/deliver/handle
// cycle performs zero heap allocations per message. It reuses the
// perfbench workload so the regression test and the recorded benchmark
// measure exactly the same path.
func TestMsgHopAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	r := testing.Benchmark(benchMsgHop)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Fatalf("message hop allocates %d objects/op in steady state, want 0", allocs)
	}
}

// pinnedPoints returns the benchmark rows BENCH_sim.json at the repo root
// pins.
func pinnedPoints(t *testing.T) []PerfPoint {
	t.Helper()
	blob, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Skipf("no pinned report: %v", err)
	}
	var report struct {
		Benchmarks []PerfPoint `json:"benchmarks"`
	}
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("BENCH_sim.json: %v", err)
	}
	return report.Benchmarks
}

// TestE2EAllocsRegression is the one gate on the end-to-end rows'
// deterministic cost columns: each row's run must stay within twice the
// allocs/op (or bytes/op) BENCH_sim.json pins for it. Allocation counts
// are deterministic enough for a 2x fence (unlike wall-clock time, which
// shared CI boxes make unpinnable), so this catches a pooling or
// footprint regression before it shows up as a slow simulator. CI
// selects it with the regexp AllocsRegression|BytesRegression.
func TestE2EAllocsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full benchmarks")
	}
	rows := []struct {
		row     string
		bytes   bool   // fence bytes/op instead of allocs/op
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
			"are demand-zero and page-table entries packed; an eagerly allocated image per host (75 MB/op " +
			"before they became sparse), a fat PTE or a fat directory entry multiplies by the host count"},
		{"E2EServe8", false, "the serving path's steady state: the pin is setup-dominated (~1.2k allocations " +
			"for a 20k-op scenario), so per-op garbage on the GET/PUT hot loop — a boxed histogram add, an " +
			"interface escape in the generator, a per-response oracle allocation — multiplies past the fence"},
		{"E2EServeLossy", false, "the armed path (reliability layer on, every frame logged for retransmission, " +
			"two hosts crashing and recovering): one request, reply or frame record allocated per " +
			"operation instead of drawn from a freelist puts tens of thousands of objects on a pin of about " +
			"a thousand, which is what the path cost while pooling was switched off under a fault plan"},
	}
	pinned := map[string]PerfPoint{}
	for _, p := range pinnedPoints(t) {
		pinned[p.Name] = p
	}
	for _, row := range rows {
		t.Run(row.row, func(t *testing.T) {
			r := testing.Benchmark(benchE2E(row.row))
			got, pin, unit := r.AllocsPerOp(), pinned[row.row].AllocsPerOp, "objects"
			if row.bytes {
				got, pin, unit = r.AllocedBytesPerOp(), pinned[row.row].BytesPerOp, "bytes"
			}
			if pin <= 0 {
				t.Fatalf("BENCH_sim.json has no %s/op pin for %s", unit, row.row)
			}
			if got > 2*pin {
				t.Fatalf("%s allocates %d %s/op, more than 2x the pinned %d (%s)", row.row, got, unit, pin, row.catches)
			}
		})
	}
}

// TestE2ECountersPinned holds the event engine to the event stream
// BENCH_sim.json recorded: every end-to-end row's run must fire exactly
// the pinned number of calendar events, process switches and engine-side
// hops, and pay exactly the pinned number of coroutine switches for them.
// The counts are pure functions of (program, seed), so unlike the fences
// above this is an equality — an engine change that claims the same
// behaviour either reproduces them or has changed the schedule. On top
// of the equality two bounds. No row's schedule may cost more than 1.8
// coroswitches per process switch: 2.0 is every switch bouncing through
// the Run goroutine again, as is a resume chain capped at one driver.
// The rows read 1.21-1.32 while the servers' switches were most of them
// (a server and a thread handing off to each other cost 1 + 1), and
// 1.23-1.59 since dsm's rows run in engine context first, 1.23-1.61 since
// barrier arrivals do too: what is left is mostly application threads
// released by a barrier in lockstep, the round-robin shape whose price is
// 2(n-1)/n whatever the discipline (E2ESOR8, 8 threads, 1.61; the bound
// was 1.4, and 1.6 for E2ESOR256). Once a fault's ack became the last stage
// of its wait sequence the scale-out rows lost their cheap switches and
// are that shape all but alone (E2ESOR64 1.89, E2ESOR256 1.96), so for
// them (lockstepRows) the ratio measures the workload, not the engine.
// They are held instead to at most the coroswitches they paid before the
// closing stage (coroswitchesBeforeClose), and so is every other row; a
// chain-less engine, 2.0 on every row, still fails the five held to 1.8.
// And no row may switch more than 0.50 times as often as it did before
// the substrate's receive, block and call sequences moved into the engine
// (switchesBeforeHops, that commit's pins): they measured 0.67-0.71 then,
// 0.39-0.54 once the protocols' message tables put fronts, tails and
// engine-context handlers into the receive sequence too, and 0.09-0.45
// since dsm's rows run there first and decline only what would wait, the
// bound being the worst row, E2EServeLossy, plus 0.05. E2EServeLossy fell
// to 0.14 (E2EFalseShareMW's 0.45 is now the worst row) once the
// transport became the only recovery layer and a fault request under a
// fault plan stopped declining to the server thread. A sequence that
// falls back to process code shows here, with events_per_op — which
// those sequences must not and did not move — still equal. Events and
// hops have a ceiling of their own (eventsAndHops), which the pins may
// not exceed either.
func TestE2ECountersPinned(t *testing.T) {
	for _, p := range pinnedPoints(t) {
		if p.EventsPerOp == 0 {
			continue // a micro row: its op is an event or a message, not a run
		}
		run, ok := e2eRuns[p.Name]
		if !ok {
			t.Errorf("BENCH_sim.json pins counters for %s, which is no end-to-end run", p.Name)
			continue
		}
		c, err := run()
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if c.Events != p.EventsPerOp || c.Switches != p.SwitchesPerOp || c.Coroswitches != p.CoroswitchesPerOp || c.Hops != p.HopsPerOp {
			t.Errorf("%s: %d events / %d switches / %d coroswitches / %d hops, pinned %d / %d / %d / %d",
				p.Name, c.Events, c.Switches, c.Coroswitches, c.Hops, p.EventsPerOp, p.SwitchesPerOp, p.CoroswitchesPerOp, p.HopsPerOp)
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
}

// eventsAndHops is the ceiling on every end-to-end row's events_per_op and
// hops_per_op: the clockless ratchet the host clock's drift needs, since
// the wall-clock gate compares each change only with its parent. A change
// that must add events or hops raises its row here, in the same diff as
// the pins, and says why. Recorded when a host's messages to itself
// stopped crossing the wire and a home began to source reads from its own
// copy (E2ESOR8 97,992 events before); the lrc-mw rows' hops rose then as
// its fetch request began to run in engine context, where a process
// switch was. The lrc-mw rows were lowered to their pins when a home's
// own writes stopped taking twins and a release stopped waiting for its
// diffs' acks (E2EWATER8MW 51,331 events and 19,292 hops before,
// E2EFalseShareMW 3,377 and 1,055), E2EWATER8MW again when lrc-mw
// homes began to follow a stable sole writer (43,491 and 14,519 before),
// and the SOR scale-out rows when SC homes began to follow theirs too
// (E2ESOR64 197,743 and 118,730 before, E2ESOR256 425,438 and 244,306),
// and the serving rows when a read under a lock began to be served
// exclusive (E2EServe8 393,545 and 228,420 before, E2EServeLossy 459,957
// and 176,623). The lrc-mw rows' hops, and E2EFalseShareMW's events, rose
// when the fetch became a read: its reply installs in engine context,
// where a switch to the server thread was, and the install's charge
// shifts the schedule (E2EWATER8MW 14,190 hops before, E2EFalseShareMW
// 2,791 events and 735 hops; both rows' switches and coroswitches fell).
var eventsAndHops = map[string]struct{ events, hops uint64 }{
	"E2ESOR8":         {94_088, 57_414},
	"E2EFalseShareMW": {2_802, 912},
	"E2EWATER8MW":     {42_162, 15_448},
	"E2ESOR64":        {187_422, 117_536},
	"E2ESOR256":       {386_064, 239_353},
	"E2EServe8":       {382_911, 221_106},
	"E2EServeLossy":   {418_608, 157_476},
}

// lockstepRows are the rows whose switches are all but all application
// threads released by a barrier in lockstep (TestE2ECountersPinned).
var lockstepRows = map[string]bool{"E2ESOR64": true, "E2ESOR256": true}

// coroswitchesBeforeClose is every end-to-end row's coroswitches_per_op
// at the commit before a fault's ack became the closing stage of its wait
// sequence, when the scale-out rows still read under 1.8 per switch.
// lrc-mw has no closing stage, so its two rows' entries are their own
// pins, re-recorded with them when lrc-mw began to home by HomeOf and
// lowered with them when its releases stopped waiting for diff acks
// (1,702 and 21,362 before) and, E2EWATER8MW's, when its homes began to
// follow a stable sole writer (18,716 before).
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
