package bench

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"millipage/internal/apps"
	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/serve"
	"millipage/internal/sim"
)

// This file measures the simulator itself — wall-clock nanoseconds and
// heap allocations per operation, not virtual time. The "before" columns
// are frozen measurements of the pre-optimization simulator (container/
// heap calendar with boxed events, closure-allocating Sleep/After, eager
// string tracing, per-message envelope and pending-record allocation,
// map-based page tables) taken on the same workloads; the runner reports
// current numbers next to them so regressions are visible at a glance.

// PerfBaseline is a frozen pre-optimization measurement. BytesPerOp was
// not recorded by the original pre-optimization runs; its baselines were
// captured at the pooled-envelope pin (the commit before the alloc-free
// protocol rework), so the bytes column measures that rework alone.
type PerfBaseline struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// PerfPoint is one measured simulator benchmark with its baseline.
type PerfPoint struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`

	// Engine work per op on the rows that run a whole application or
	// scenario (E2E*): deterministic counts, so a wall-clock move with
	// these unchanged is a change in cost per event, not in
	// event count. Coroswitches over switches is what the schedule's
	// shape lets a process switch cost (1 trading between two processes,
	// 2 at worst); hops are the resume events a wait sequence took in
	// engine context, each a process switch that did not happen.
	EventsPerOp       uint64 `json:"events_per_op,omitempty"`
	SwitchesPerOp     uint64 `json:"switches_per_op,omitempty"`
	CoroswitchesPerOp uint64 `json:"coroswitches_per_op,omitempty"`
	HopsPerOp         uint64 `json:"hops_per_op,omitempty"`

	Baseline     PerfBaseline `json:"baseline"`
	Speedup      float64      `json:"speedup"`       // baseline ns / current ns
	AllocsFactor float64      `json:"allocs_factor"` // baseline allocs / current allocs (+Inf -> 0 allocs now)
}

// perfSuite lists the simulator benchmarks with their frozen baselines.
var perfSuite = []struct {
	name     string
	baseline PerfBaseline
	run      func(b *testing.B)
}{
	{"EventDispatch", PerfBaseline{88.31, 2, 0}, benchEventDispatch},
	{"ProcessSwitch", PerfBaseline{575.0, 3, 0}, benchProcessSwitch},
	{"ProcessHandover", PerfBaseline{handoverBaselineNs, 0, 0}, benchProcessHandover},
	{"MsgHop", PerfBaseline{2387, 18, 0}, benchMsgHop},
	{"MsgHopReliable", PerfBaseline{2517.5, 0, 44}, benchMsgHopReliable},
	{"E2ESOR8", PerfBaseline{114463687, 455085, 24604741}, benchE2E("E2ESOR8")},
	{"E2EFalseShareMW", PerfBaseline{5552905, 968, 12191948}, benchE2E("E2EFalseShareMW")},
	{"E2EWATER8MW", PerfBaseline{34954527, 11433, 28237266}, benchE2E("E2EWATER8MW")},
	{"E2ESOR64", PerfBaseline{102808427, 3651, 72700476}, benchE2E("E2ESOR64")},
	{"E2ESOR256", PerfBaseline{285312197, 14497, 167084576}, benchE2E("E2ESOR256")},
	{"E2EServe8", PerfBaseline{serveBaselineNs, serveBaselineAllocs, serveBaselineBytes}, benchE2E("E2EServe8")},
	{"E2EServeLossy", PerfBaseline{serveLossyBaselineNs, serveLossyBaselineAllocs, serveLossyBaselineBytes}, benchE2E("E2EServeLossy")},
}

// e2eRuns are the end-to-end rows' workloads: one whole run each,
// reporting what it cost the event engine.
var e2eRuns = map[string]func() (sim.Counters, error){
	// The 8-host SOR run (reduced scale), the acceptance workload for
	// the hot-path work.
	"E2ESOR8": sorRun(apps.Params{Hosts: 8, Scale: 0.1}),

	// The cluster-scaling workloads. Their baselines were frozen when the
	// rows were introduced, so speedup reads as drift since then. 256
	// hosts runs at half scale to keep one iteration bounded; its cost is
	// dominated by per-host protocol state and 256 threads' barrier
	// arrivals, which combine up the fan-in-8 barrier tree.
	"E2ESOR64":  sorRun(apps.Params{Hosts: 64, Scale: 0.1}),
	"E2ESOR256": sorRun(apps.Params{Hosts: 256, Scale: 0.05}),

	// The SC-vs-multi-writer comparison kernels under lrc-mw (twins,
	// run-length diffs, write notices). Unlike the rows above, their
	// frozen baselines are the SAME workload under SC-Millipage measured
	// at pin time, so "speedup" reads as the relative simulator cost of
	// the twin/diff machinery: ~1.0 means multi-writer LRC simulates
	// about as fast as the SC protocol it is compared against.
	"E2EFalseShareMW": mwRun(func() (MWRow, error) { return FalseShareKernel("lrc-mw", 1) }),
	"E2EWATER8MW":     mwRun(func() (MWRow, error) { return WaterChunkPoint("lrc-mw", 0.1, 1) }),

	// One base serving scenario (8 hosts, 100k simulated clients, 20k
	// Zipfian ops under SC-Millipage) — the acceptance workload of the
	// serving subsystem and the anchor of its allocs/op CI gate
	// (TestE2EAllocsRegression/E2EServe8).
	"E2EServe8": scenarioRun("base-millipage", nil),

	// One serving scenario with the reliability layer armed — 4 hosts,
	// 20k ops at 2000 ops/s under the crash-restart preset (2% frame
	// loss, two host crash/restarts): the benchmark harness's
	// serve-lossy workload.
	"E2EServeLossy": scenarioRun("crash-restart", func(sc *serve.Scenario) {
		sc.Rate, sc.Ops = 2_000, 20_000
	}),
}

func sorRun(p apps.Params) func() (sim.Counters, error) {
	p.Seed = 1
	return func() (sim.Counters, error) {
		r, err := apps.RunSOR(p)
		return r.Engine.Counters, err
	}
}

func mwRun(kernel func() (MWRow, error)) func() (sim.Counters, error) {
	return func() (sim.Counters, error) {
		row, err := kernel()
		return row.Engine, err
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

// lastCounters records the engine counters of the last end-to-end
// benchmark iteration, for RunPerfBench's events_per_op /
// switches_per_op / coroswitches_per_op / hops_per_op columns.
var lastCounters sim.Counters

// benchE2E is the wall-clock benchmark of one e2eRuns shape.
func benchE2E(name string) func(b *testing.B) {
	run := e2eRuns[name]
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := run()
			if err != nil {
				b.Fatal(err)
			}
			lastCounters = c
		}
	}
}

// The E2EServe8 baseline was frozen when the serving subsystem landed,
// so its speedup column reads as drift of the serving path since then.
// The alloc pin is setup-dominated (bucket slices, oracle maps, cluster
// construction): at ~1.2k allocs for a 20k-op scenario the per-op steady
// state is effectively alloc-free, riding the simulator's pooled paths.
const (
	serveBaselineNs     = 139_956_987
	serveBaselineAllocs = 1_199
	serveBaselineBytes  = 4_486_268
)

// The E2EServeLossy baseline is the same scenario at the commit before
// the armed path lost its allocating twin: under a fault plan every
// protocol header, snapshot buffer, fault request and retry timer was a
// fresh heap object then, so the allocs column reads as what one pooled
// send path saved (and the row's CI gate, TestE2EAllocsRegression/E2EServeLossy,
// as the fence against a second path growing back).
const (
	serveLossyBaselineNs     = 321_861_140
	serveLossyBaselineAllocs = 132_604
	serveLossyBaselineBytes  = 15_249_179
)

// benchEventDispatch: schedule-and-fire throughput of the engine calendar.
func benchEventDispatch(b *testing.B) {
	e := sim.NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	e.Spawn("driver", func(p *sim.Proc) {
		for n < b.N {
			p.Sleep(1000)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchProcessSwitch: one Sleep per iteration (fast-path when the
// calendar allows, park/resume handshake otherwise).
func benchProcessSwitch(b *testing.B) {
	e := sim.NewEngine(1)
	e.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// The ProcessHandover baseline is the same loop at the commit before
// direct hand-off, when every process switch was two coroswitches
// through the Run goroutine (sim.BenchmarkProcessHandover there).
const handoverBaselineNs = 140.0

// benchProcessHandover: a real process switch, which ProcessSwitch — the
// Sleep fast path since PR 2 — never takes. Two processes sleep on
// interleaved phases, so every Sleep finds the other's resume first in
// the calendar and hands the processor over (the loop of
// sim.BenchmarkProcessHandover).
func benchProcessHandover(b *testing.B) {
	e := sim.NewEngine(1)
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("p", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i))
			for j := 0; j < b.N/2; j++ {
				p.Sleep(2)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchMsgHop: the full fastmsg one-hop path with pooled envelopes and
// tracing off — the message hot path exactly as the DSM drives it.
func benchMsgHop(b *testing.B) {
	eng := sim.NewEngine(1)
	nw := fastmsg.New(eng, 2, fastmsg.DefaultParams())
	got := 0
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *fastmsg.Message) { got++ })
	eng.Spawn("sender", func(p *sim.Proc) {
		ep := nw.Endpoint(0)
		for i := 0; i < b.N; i++ {
			m := ep.AllocMessage()
			m.Size = 32
			ep.Send(p, 1, m)
		}
		for got < b.N {
			p.Sleep(10 * sim.Millisecond)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchMsgHopReliable: the same one-hop path with the reliability layer
// armed but no fault ever firing — the plan's only entry is a partition
// window in the far future, so Enabled() holds and every frame pays for
// sequence numbers, cumulative acks and retransmit-timer bookkeeping.
// Re-pinned after the pooled-envelope work: the baseline is now its own
// armed-path measurement at that pin (2517.5 ns, 0 allocs, 44 B), so
// speedup reads as drift of the armed path itself rather than its cost
// relative to MsgHop (compare the two rows directly for that).
func benchMsgHopReliable(b *testing.B) {
	eng := sim.NewEngine(1)
	nw := fastmsg.New(eng, 2, fastmsg.DefaultParams())
	far := sim.Time(1 << 60)
	inj, err := faultnet.NewInjector(faultnet.Plan{
		Partitions: []faultnet.Partition{{A: 0b01, B: 0b10, From: far, Until: far + 1}},
	}, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	nw.InstallFaults(inj)
	got := 0
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *fastmsg.Message) { got++ })
	eng.Spawn("sender", func(p *sim.Proc) {
		ep := nw.Endpoint(0)
		for i := 0; i < b.N; i++ {
			m := ep.AllocMessage()
			m.Size = 32
			ep.Send(p, 1, m)
		}
		for got < b.N {
			p.Sleep(10 * sim.Millisecond)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// RunPerfBench measures the simulator benchmark suite.
func RunPerfBench() []PerfPoint {
	var out []PerfPoint
	for _, s := range perfSuite {
		lastCounters = sim.Counters{}
		r := testing.Benchmark(s.run)
		p := PerfPoint{
			Name:              s.name,
			NsPerOp:           float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:       r.AllocsPerOp(),
			BytesPerOp:        r.AllocedBytesPerOp(),
			EventsPerOp:       lastCounters.Events,
			SwitchesPerOp:     lastCounters.Switches,
			CoroswitchesPerOp: lastCounters.Coroswitches,
			HopsPerOp:         lastCounters.Hops,
			Baseline:          s.baseline,
		}
		if p.NsPerOp > 0 {
			p.Speedup = p.Baseline.NsPerOp / p.NsPerOp
		}
		if p.AllocsPerOp > 0 {
			p.AllocsFactor = float64(p.Baseline.AllocsPerOp) / float64(p.AllocsPerOp)
		} else if p.Baseline.AllocsPerOp > 0 {
			p.AllocsFactor = 0 // rendered as "now allocation-free"
		}
		out = append(out, p)
	}
	return out
}

// WritePerfBench runs the suite, renders a table to w, and (when path is
// non-empty) writes the machine-readable report to path.
func WritePerfBench(w io.Writer, path string) error {
	pts := RunPerfBench()
	fmt.Fprintln(w, "Simulator wall-clock benchmarks (before = pre-optimization baseline)")
	fmt.Fprintf(w, "sweep workers=%d (machine cores=%d)\n", Workers(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-15s %14s %14s %8s %13s %13s %13s %13s %15s %19s %11s\n",
		"benchmark", "before ns/op", "now ns/op", "speedup", "before allocs", "now allocs", "now B/op", "events_per_op", "switches_per_op", "coroswitches_per_op", "hops_per_op")
	for _, p := range pts {
		fmt.Fprintf(w, "%-15s %14.1f %14.1f %7.2fx %13d %13d %13d",
			p.Name, p.Baseline.NsPerOp, p.NsPerOp, p.Speedup, p.Baseline.AllocsPerOp, p.AllocsPerOp, p.BytesPerOp)
		if p.EventsPerOp > 0 { // the micro rows' op is an event or a message, not a run
			fmt.Fprintf(w, " %13d %15d %19d %11d", p.EventsPerOp, p.SwitchesPerOp, p.CoroswitchesPerOp, p.HopsPerOp)
		}
		fmt.Fprintln(w)
	}
	if path == "" {
		return nil
	}
	// Update only the benchmarks section: serving rows are written by the
	// serve command and must survive a perf-suite regeneration.
	report, err := readBenchReport(path)
	if err != nil {
		return err
	}
	report.Note = "wall-clock simulator performance; baseline = pre-optimization simulator on the same workloads, except the *MW rows whose baseline is the same workload under SC-Millipage (speedup = SC cost / multi-writer-LRC cost), the E2EServe8 row whose baseline was frozen when the serving subsystem landed, and the E2EServeLossy row whose baseline is the same scenario on the allocating armed path it replaced"
	report.Benchmarks = pts
	if err := writeBenchReport(path, report); err != nil {
		return err
	}
	fmt.Fprintf(w, "(report written to %s)\n", path)
	return nil
}
