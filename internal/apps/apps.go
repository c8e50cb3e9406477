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
	// "" or "millipage", "ivy" or "lrc-mw". Every application is
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

	// Engine accepts only "" or "seq": there is one event engine. Kept so
	// the benchmark module compiles; goes with its `kernel/sim.par` group.
	Engine string
	// ParWorkers accepts only 0. Kept so the benchmark module compiles;
	// goes with its `kernel/sim.par` group.
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

// newCluster is the one place a suite application's Params become a
// millipage.Config: it rejects what no application can run, then builds
// the cluster around the application's own shared-memory size and view
// count. chunkLevel is WATER's p.ChunkLevel; the other applications pass
// 0 and ignore the field.
func (p Params) newCluster(sharedMemory, views, chunkLevel int) (*millipage.Cluster, error) {
	switch {
	case p.Hosts < 0:
		return nil, fmt.Errorf("apps: Hosts = %d; must not be negative", p.Hosts)
	case p.Scale < 0:
		return nil, fmt.Errorf("apps: Scale = %g; must not be negative", p.Scale)
	case p.Engine != "" && p.Engine != "seq":
		return nil, fmt.Errorf("apps: Engine = %q; there is one event engine (\"seq\")", p.Engine)
	case p.ParWorkers != 0:
		return nil, fmt.Errorf("apps: ParWorkers = %d; there is no parallel engine to give workers to", p.ParWorkers)
	}
	return millipage.NewCluster(millipage.Config{
		Protocol:        p.Protocol,
		Hosts:           p.Hosts,
		SharedMemory:    sharedMemory,
		Views:           views,
		ChunkLevel:      chunkLevel,
		PageGranularity: p.PageGrain,
		Seed:            p.Seed,
		PerfectTimers:   p.PerfectTimers,
	})
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
	Engine  EngineShape  // what the run cost the event engine
}

// EngineShape records what the run cost the event engine.
type EngineShape struct {
	// Windows is always 0. Kept so the benchmark module compiles; goes
	// with its `kernel/sim.par` group.
	Windows  uint64
	Counters sim.Counters // the engine's work counts for the run
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
