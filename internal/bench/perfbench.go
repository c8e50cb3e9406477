package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"

	"millipage/internal/apps"
	"millipage/internal/serve"
	"millipage/internal/sim"
)

// This file keeps the benchmarks section of BENCH_sim.json: a ledger of
// what each end-to-end run costs in counts, with no clock in it. Heap
// allocations are deterministic enough for a 2x fence
// (TestE2EAllocsRegression) and the engine's counts are pure functions of
// (program, seed) (TestE2ECountersPinned), so CI gates both; wall-clock
// time is measured by the benchmark/ module and each layer's Go
// benchmarks.

// ledgerNote is the benchmarks section's note in BENCH_sim.json.
const ledgerNote = "clockless cost of each end-to-end run: heap allocations and bytes per run (the least of 4 runs after a warm-up; TestE2EAllocsRegression fences them at 2x) and event-engine counts per run (TestE2ECountersPinned pins them exactly); wall-clock time is benchmark/run.sh's"

// PerfPoint is one ledger row: what one run of an end-to-end workload
// costs.
type PerfPoint struct {
	Name        string `json:"name"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`

	// Engine work per run. Coroswitches over switches is what the
	// schedule's shape lets a process switch cost (1 trading between two
	// processes, 2 at worst); hops are the resume events a wait sequence
	// took in engine context, each a process switch that did not happen.
	EventsPerOp       uint64 `json:"events_per_op"`
	SwitchesPerOp     uint64 `json:"switches_per_op"`
	CoroswitchesPerOp uint64 `json:"coroswitches_per_op"`
	HopsPerOp         uint64 `json:"hops_per_op"`
}

// e2eRow is one ledger row: one whole run, reporting what it cost the
// event engine, or an error when the run's answer is wrong, so no wrong
// run is ever recorded. A row with a ref checks its run against the
// application's answer at one host, which ref computes once, before and
// outside any measurement (e2eRun).
type e2eRow struct {
	name string
	ref  func() (float64, error) // the answer run must give, or nil for a row with no oracle
	run  func(ref float64) (sim.Counters, error)
}

// e2eRuns are the ledger's rows, in its order.
var e2eRuns = []e2eRow{
	// The 8-host SOR run (reduced scale), the acceptance workload for
	// the hot-path work.
	sorRow("E2ESOR8", apps.Params{Hosts: 8, Scale: 0.1}),

	// The SC-vs-multi-writer comparison kernels under lrc-mw (twins,
	// run-length diffs, write notices). The false-sharing kernel has no
	// oracle of its own.
	{"E2EFalseShareMW", nil, func(float64) (sim.Counters, error) {
		row, err := FalseShareKernel("lrc-mw", 1)
		return row.Engine, err
	}},
	{"E2EWATER8MW", func() (float64, error) {
		r, err := apps.RunWATER(apps.Params{Protocol: "lrc-mw", Hosts: 1, Scale: 0.1, Seed: 1, ChunkLevel: 5})
		return r.Check, err
	}, func(ref float64) (sim.Counters, error) {
		row, err := WaterChunkPoint("lrc-mw", 0.1, 1)
		// Lock order changes the floating-point sums across host counts:
		// the WATER suite's relative tolerance.
		if err == nil && (!row.Checked || math.Abs(row.Check-ref)/math.Max(math.Abs(ref), 1) > 1e-6) {
			err = fmt.Errorf("WATER under lrc-mw at 8 hosts checks %v, the 1-host run %v", row.Check, ref)
		}
		return row.Engine, err
	}},

	// The cluster-scaling workloads. 256 hosts runs at half scale to
	// keep one run bounded; its cost is dominated by per-host protocol
	// state and 256 threads' barrier arrivals, which combine up the
	// fan-in-8 barrier tree.
	sorRow("E2ESOR64", apps.Params{Hosts: 64, Scale: 0.1}),
	sorRow("E2ESOR256", apps.Params{Hosts: 256, Scale: 0.05}),

	// One base serving scenario (8 hosts, 100k simulated clients, 20k
	// Zipfian ops under SC-Millipage) — the acceptance workload of the
	// serving subsystem and the anchor of its allocs/op CI gate
	// (TestE2EAllocsRegression/E2EServe8).
	{"E2EServe8", nil, scenarioRun("base-millipage", nil)},

	// One serving scenario with the reliability layer armed — 4 hosts,
	// 20k ops at 2000 ops/s under the crash-restart preset (2% frame
	// loss, two host crash/restarts): the benchmark harness's
	// serve-lossy workload.
	{"E2EServeLossy", nil, scenarioRun("crash-restart", func(sc *serve.Scenario) {
		sc.Rate, sc.Ops = 2_000, 20_000
	})},
}

// e2eRun returns the named ledger row's run, its reference answer already
// computed.
func e2eRun(name string) (func() (sim.Counters, error), error) {
	for _, r := range e2eRuns {
		if r.name != name {
			continue
		}
		var ref float64
		if r.ref != nil {
			var err error
			if ref, err = r.ref(); err != nil {
				return nil, fmt.Errorf("%s: the 1-host reference run: %w", name, err)
			}
		}
		return func() (sim.Counters, error) { return r.run(ref) }, nil
	}
	return nil, fmt.Errorf("no end-to-end run %s", name)
}

// sorRow is the ledger row of SOR at p, whose checksum must equal the
// 1-host run's exactly: SOR's sums do not depend on the host count.
func sorRow(name string, p apps.Params) e2eRow {
	p.Seed = 1
	one := p
	one.Hosts = 1
	return e2eRow{name, func() (float64, error) {
		r, err := apps.RunSOR(one)
		return r.Check, err
	}, func(ref float64) (sim.Counters, error) {
		r, err := apps.RunSOR(p)
		if err == nil && (!r.Checked || r.Check != ref) {
			err = fmt.Errorf("SOR at %d hosts checks %v, the 1-host run %v", p.Hosts, r.Check, ref)
		}
		return r.Engine.Counters, err
	}}
}

// scenarioRun runs the named serving scenario, reshaped by shape when it
// is not nil.
func scenarioRun(name string, shape func(*serve.Scenario)) func(float64) (sim.Counters, error) {
	return func(float64) (sim.Counters, error) {
		sc, err := serve.Lookup(name)
		if err != nil {
			return sim.Counters{}, err
		}
		if shape != nil {
			shape(&sc)
		}
		res, err := serve.Run(sc)
		if err != nil {
			return sim.Counters{}, err
		}
		return res.Engine, nil
	}
}

// ledgerReps is how many runs of a row measure takes the least of.
const ledgerReps = 4

// measure runs the named row once to warm up and then ledgerReps times,
// and returns its ledger row: the fewest allocations and bytes of those
// runs, and the engine counters of the last. testing.Benchmark's mean
// over a time-driven b.N moved by a few objects from one measurement to
// the next, as a collection empties the process-wide pools (fmt's among
// them) at no fixed point in a run. Here a collection comes before the
// warm-up, which refills them, and none during the runs; and the least,
// not the mean, leaves out a run in which the scheduler or a map's seed
// cost an object more: two measurements agree exactly. `millipage bench`
// writes the pins from it and TestE2EAllocsRegression checks them with
// it.
func measure(name string) (PerfPoint, error) {
	run, err := e2eRun(name)
	if err == nil {
		runtime.GC()
		_, err = run()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := PerfPoint{Name: name, AllocsPerOp: math.MaxInt64, BytesPerOp: math.MaxInt64}
	for i := 0; i < ledgerReps && err == nil; i++ {
		var before, after runtime.MemStats
		var c sim.Counters
		runtime.ReadMemStats(&before)
		c, err = run()
		runtime.ReadMemStats(&after)
		p.AllocsPerOp = min(p.AllocsPerOp, int64(after.Mallocs-before.Mallocs))
		p.BytesPerOp = min(p.BytesPerOp, int64(after.TotalAlloc-before.TotalAlloc))
		p.EventsPerOp, p.SwitchesPerOp, p.CoroswitchesPerOp, p.HopsPerOp = c.Events, c.Switches, c.Coroswitches, c.Hops
	}
	if err != nil {
		return PerfPoint{}, fmt.Errorf("%s: %w", name, err)
	}
	return p, nil
}

// writeLedger replaces the benchmarks section of the report at path with
// pts, leaving its serving section as it was.
func writeLedger(path string, pts []PerfPoint) error {
	report, err := readBenchReport(path)
	if err != nil {
		return err
	}
	report.Note = ledgerNote
	report.Benchmarks = pts
	return writeBenchReport(path, report)
}

// WritePerfBench measures every ledger row, renders a table to w, and
// (when path is non-empty) writes the rows to the report at path. A run
// that fails its own check fails the whole command before anything is
// written.
func WritePerfBench(w io.Writer, path string) error {
	var pts []PerfPoint
	for _, r := range e2eRuns {
		p, err := measure(r.name)
		if err != nil {
			return err
		}
		pts = append(pts, p)
	}
	fmt.Fprintln(w, "End-to-end runs in counts, per run (no clock: wall-clock time is benchmark/run.sh's)")
	fmt.Fprintf(w, "%-15s %13s %13s %13s %15s %19s %11s\n",
		"benchmark", "allocs_per_op", "bytes_per_op", "events_per_op", "switches_per_op", "coroswitches_per_op", "hops_per_op")
	for _, p := range pts {
		fmt.Fprintf(w, "%-15s %13d %13d %13d %15d %19d %11d\n",
			p.Name, p.AllocsPerOp, p.BytesPerOp, p.EventsPerOp, p.SwitchesPerOp, p.CoroswitchesPerOp, p.HopsPerOp)
	}
	if path == "" {
		return nil
	}
	if err := writeLedger(path, pts); err != nil {
		return err
	}
	fmt.Fprintf(w, "(report written to %s)\n", path)
	return nil
}
