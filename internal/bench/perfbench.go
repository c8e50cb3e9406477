package bench

import (
	"errors"
	"fmt"
	"io"
	"testing"

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
const ledgerNote = "clockless cost of each end-to-end run: heap allocations and bytes per run (testing.Benchmark; TestE2EAllocsRegression fences them at 2x) and event-engine counts per run (TestE2ECountersPinned pins them exactly); wall-clock time is benchmark/run.sh's"

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

// e2eRuns are the ledger's rows, in its order: one whole run each,
// reporting what it cost the event engine, or an error when the run's own
// result check fails, so no wrong run is ever recorded.
var e2eRuns = []struct {
	name string
	run  func() (sim.Counters, error)
}{
	// The 8-host SOR run (reduced scale), the acceptance workload for
	// the hot-path work.
	{"E2ESOR8", sorRun(apps.Params{Hosts: 8, Scale: 0.1})},

	// The SC-vs-multi-writer comparison kernels under lrc-mw (twins,
	// run-length diffs, write notices). The false-sharing kernel has no
	// oracle of its own.
	{"E2EFalseShareMW", func() (sim.Counters, error) {
		row, err := FalseShareKernel("lrc-mw", 1)
		return row.Engine, err
	}},
	{"E2EWATER8MW", func() (sim.Counters, error) {
		row, err := WaterChunkPoint("lrc-mw", 0.1, 1)
		if err == nil && !row.Checked {
			err = errors.New("WATER under lrc-mw failed its own check")
		}
		return row.Engine, err
	}},

	// The cluster-scaling workloads. 256 hosts runs at half scale to
	// keep one run bounded; its cost is dominated by per-host protocol
	// state and 256 threads' barrier arrivals, which combine up the
	// fan-in-8 barrier tree.
	{"E2ESOR64", sorRun(apps.Params{Hosts: 64, Scale: 0.1})},
	{"E2ESOR256", sorRun(apps.Params{Hosts: 256, Scale: 0.05})},

	// One base serving scenario (8 hosts, 100k simulated clients, 20k
	// Zipfian ops under SC-Millipage) — the acceptance workload of the
	// serving subsystem and the anchor of its allocs/op CI gate
	// (TestE2EAllocsRegression/E2EServe8).
	{"E2EServe8", scenarioRun("base-millipage", nil)},

	// One serving scenario with the reliability layer armed — 4 hosts,
	// 20k ops at 2000 ops/s under the crash-restart preset (2% frame
	// loss, two host crash/restarts): the benchmark harness's
	// serve-lossy workload.
	{"E2EServeLossy", scenarioRun("crash-restart", func(sc *serve.Scenario) {
		sc.Rate, sc.Ops = 2_000, 20_000
	})},
}

// e2eRun returns the named ledger row's run.
func e2eRun(name string) (func() (sim.Counters, error), bool) {
	for _, r := range e2eRuns {
		if r.name == name {
			return r.run, true
		}
	}
	return nil, false
}

func sorRun(p apps.Params) func() (sim.Counters, error) {
	p.Seed = 1
	return func() (sim.Counters, error) {
		r, err := apps.RunSOR(p)
		if err == nil && !r.Checked {
			err = fmt.Errorf("SOR at %d hosts failed its own check (checksum %v)", p.Hosts, r.Check)
		}
		return r.Engine.Counters, err
	}
}

// scenarioRun runs the named serving scenario, reshaped by shape when it
// is not nil.
func scenarioRun(name string, shape func(*serve.Scenario)) func() (sim.Counters, error) {
	return func() (sim.Counters, error) {
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

// measure runs the named row under testing.Benchmark and returns its
// ledger row: allocations and bytes per run, and the engine counters of
// its last run. `millipage bench` writes the pins from it and
// TestE2EAllocsRegression checks them with it.
func measure(name string) (PerfPoint, error) {
	run, ok := e2eRun(name)
	if !ok {
		return PerfPoint{}, fmt.Errorf("no end-to-end run %s", name)
	}
	var c sim.Counters
	var err error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if c, err = run(); err != nil {
				b.FailNow()
			}
		}
	})
	if err != nil {
		return PerfPoint{}, fmt.Errorf("%s: %w", name, err)
	}
	return PerfPoint{
		Name:              name,
		AllocsPerOp:       r.AllocsPerOp(),
		BytesPerOp:        r.AllocedBytesPerOp(),
		EventsPerOp:       c.Events,
		SwitchesPerOp:     c.Switches,
		CoroswitchesPerOp: c.Coroswitches,
		HopsPerOp:         c.Hops,
	}, nil
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
