package serve

import (
	"fmt"
	"sort"
)

// scenarios.go — the declarative scenario table. A serving scenario is
// a table entry, not code: protocol × hosts × keyspace × skew × rate ×
// mix × fault preset. New scenarios are appended here (or built in a
// test) and immediately get the full harness — oracle validation,
// deterministic fingerprint, golden pinning, CLI and bench exposure.

// base returns the shared 8-host mid-size shape the per-protocol rows
// specialize: 100k simulated clients over a 4096-key space in 256
// buckets (~16 keys/bucket, 128-byte buckets, 16 to the page), 90/10
// read/write at 20k ops/s for one virtual second of traffic. The rate
// sits at ~50% of SC-Millipage's measured saturation throughput so the
// percentiles read as service latency, not backlog growth; the LRC
// protocols (whose DRF contract makes every GET a lock round-trip) run
// visibly hotter at the same offered load, and that is the point of the
// cross-protocol table.
func base(name, protocol string) Scenario {
	return Scenario{
		Name:          name,
		Protocol:      protocol,
		Hosts:         8,
		Keys:          4096,
		Buckets:       256,
		Clients:       100_000,
		Rate:          20_000,
		Ops:           20_000,
		ReadFrac:      0.90,
		ZipfS:         0.99,
		Seed:          1,
		PerfectTimers: true,
	}
}

// Scenarios is the registry. Order is the presentation order of the
// bench tables.
func Scenarios() []Scenario {
	smoke := Scenario{
		Name:          "smoke",
		Protocol:      "millipage",
		Hosts:         4,
		Keys:          1024,
		Buckets:       64,
		Clients:       10_000,
		Rate:          20_000,
		Ops:           4_000,
		ReadFrac:      0.90,
		ZipfS:         0.99,
		Seed:          1,
		PerfectTimers: true,
	}
	smokeMW := smoke
	smokeMW.Name, smokeMW.Protocol = "smoke-lrc-mw", "lrc-mw"

	// million is the acceptance workload: one million simulated clients
	// multiplexed over 8 hosts, 150k requests at 50k ops/s (~70% of the
	// measured saturation throughput of this shape, so the tail is
	// protocol service plus transient queueing, not unbounded backlog).
	million := Scenario{
		Name:          "million",
		Protocol:      "millipage",
		Hosts:         8,
		Keys:          16_384,
		Buckets:       512,
		Clients:       1_000_000,
		Rate:          50_000,
		Ops:           150_000,
		ReadFrac:      0.95,
		ZipfS:         0.99,
		Seed:          1,
		PerfectTimers: true,
	}

	ntTimers := base("nt-timers", "millipage")
	ntTimers.PerfectTimers = false
	ntTimers.Rate = 10_000
	ntTimers.Ops = 5_000

	hotspot := base("hotspot", "millipage")
	hotspot.ZipfS = 1.2

	uniform := base("uniform", "millipage")
	uniform.ZipfS = 0

	dropHeavy := Scenario{
		Name:          "drop-heavy",
		Protocol:      "millipage",
		Hosts:         4,
		Keys:          512,
		Buckets:       32,
		Clients:       10_000,
		Rate:          10_000,
		Ops:           2_000,
		ReadFrac:      0.80,
		ZipfS:         0.99,
		Seed:          1,
		Faults:        "drop-heavy",
		PerfectTimers: true,
	}
	crashRestart := dropHeavy
	crashRestart.Name, crashRestart.Faults = "crash-restart", "crash-restart"
	// Stretch the run past the preset's second crash window (host 0 goes
	// down at 15ms virtual) so the service keeps taking traffic while the
	// allocation/lock authority is dead and restarting.
	crashRestart.Ops = 4_000
	crashRestart.Rate = 8_000

	out := []Scenario{
		smoke,
		smokeMW,
		base("base-millipage", "millipage"),
		base("base-ivy", "ivy"),
		base("base-lrc-mw", "lrc-mw"),
		million,
		ntTimers,
		hotspot,
		uniform,
		dropHeavy,
		crashRestart,
	}
	return out
}

// Lookup finds a named scenario.
func Lookup(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	names := make([]string, 0, len(Scenarios()))
	for _, sc := range Scenarios() {
		names = append(names, sc.Name)
	}
	sort.Strings(names)
	return Scenario{}, fmt.Errorf("serve: unknown scenario %q (have %v)", name, names)
}

// Names lists the registered scenario names in table order.
func Names() []string {
	scs := Scenarios()
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.Name
	}
	return names
}
