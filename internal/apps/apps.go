// Package apps implements the paper's five-application benchmark suite
// (Table 2) against the public millipage API:
//
//	SOR    — red/black successive over-relaxation (TreadMarks suite),
//	         32768x64 matrix, one row (256 B) per minipage.
//	IS     — NAS Integer Sort, 2^23 keys with 2^9 values, a 2 KB shared
//	         rank array in 256 B per-host regions.
//	WATER  — SPLASH-2 Water-nsquared (simplified force field), 512
//	         molecules of 672 B, one molecule (or chunk) per minipage.
//	LU     — SPLASH-2 LU-contiguous, 1024x1024 matrix in 32x32 blocks,
//	         one 4 KB block per minipage.
//	TSP    — TreadMarks traveling salesperson, 19 cities, recursion
//	         level 12, one 148 B tour element per minipage.
//
// Each implementation reproduces the sharing pattern the paper describes,
// including the allocation modifications of Section 4.3 (per-molecule,
// per-region, per-tour allocations) and LU's two prefetch calls. The
// computation is real — matrices converge, keys sort, tours are optimal —
// while per-element compute costs are charged to the virtual clock with
// constants calibrated to the 300 MHz Pentium II testbed.
package apps

import (
	"fmt"

	millipage "millipage"
	"millipage/internal/sim"
)

// Params selects a cluster configuration shared by all applications.
type Params struct {
	// Protocol selects the coherence protocol (millipage.Config.Protocol):
	// "" or "millipage", "ivy", "lrc", or "lrc-mw". Every application is
	// data-race-free (barrier/lock structured), so the suite runs — and
	// its checksums hold — under any of the three.
	Protocol      string
	Hosts         int
	ChunkLevel    int  // WATER's chunking switch
	PageGrain     bool // run on the traditional page-based layout instead
	PerfectTimers bool // remove the NT timer pathology
	ComposedViews bool // WATER: gang-fetch the read phase (paper Section 5)
	Seed          int64
	Scale         float64 // problem scale: 1.0 = the paper's data sets

	// Engine selects the event engine ("seq" default, "par" for the
	// sharded parallel engine) and ParWorkers bounds its goroutines; see
	// millipage.Config. Virtual-time results are engine-independent.
	Engine     string
	ParWorkers int
}

func (p Params) withDefaults() Params {
	if p.Hosts == 0 {
		p.Hosts = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Scale == 0 {
		p.Scale = 1.0
	}
	return p
}

// scaled applies the problem scale to a paper-sized quantity, keeping at
// least min.
func scaled(full int, scale float64, min int) int {
	v := int(float64(full) * scale)
	if v < min {
		v = min
	}
	return v
}

// Result bundles an application run's outcome.
type Result struct {
	Name    string
	Hosts   int
	Report  *millipage.Report
	Timed   sim.Duration // the timed parallel section (excludes setup), for speedups
	Check   float64      // application checksum; equal across host counts iff SC holds
	Checked bool         // application-level verification ran and passed
	Engine  EngineShape  // event-engine execution shape of the run
}

// EngineShape records how the event engine executed the run (see
// millipage.Cluster.EngineStats): 1 shard / 0 windows on the sequential
// engine, hosts+1 shards on the parallel one.
type EngineShape struct {
	Shards    int
	Workers   int
	Windows   uint64
	MaxActive int
	Counters  sim.Counters // the engine's work counts for the run
}

// engineShape captures a cluster's execution shape after Run.
func engineShape(c *millipage.Cluster) EngineShape {
	shards, workers, windows, maxActive := c.EngineStats()
	return EngineShape{Shards: shards, Workers: workers, Windows: windows, MaxActive: maxActive, Counters: c.EngineCounters()}
}

func (r Result) String() string {
	return fmt.Sprintf("%s hosts=%d timed=%v elapsed=%v", r.Name, r.Hosts, r.Timed, r.Report.Elapsed)
}

// Runner is one suite application.
type Runner func(p Params) (Result, error)

// App is a named suite entry.
type App struct {
	Name string
	Run  Runner
}

// Suite maps application names to runners, in the paper's Table 2 order.
func Suite() []App {
	return []App{
		{"SOR", RunSOR},
		{"IS", RunIS},
		{"WATER", RunWATER},
		{"LU", RunLU},
		{"TSP", RunTSP},
	}
}

// perByte et al. — calibrated per-operation compute costs on the
// 300 MHz testbed, used by the applications to charge virtual time for
// the work between shared-memory operations.
const (
	// sorElem: ~5 flops + 5 loads/store per stencil point.
	sorElem = 80 * sim.Nanosecond
	// isKey: histogram increment with a dependent cache access.
	isKey = 45 * sim.Nanosecond
	// waterPair: one intermolecular interaction of the (simplified) water
	// force field -- several hundred flops on the testbed.
	waterPair = 8000 * sim.Nanosecond
	// luMADD: one fused multiply-add in the blocked update.
	luMADD = 30 * sim.Nanosecond
	// tspEdge: one tour-length accumulation step.
	tspEdge = 25 * sim.Nanosecond
)
