package mcheck

import (
	"fmt"
	"sort"

	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// Fault presets: the chaos suite's four-point matrix, exported so
// exploration composes schedule perturbation with wire hostility.
// Partition and crash windows sit a few virtual milliseconds in —
// inside the barrier phases of every mcheck workload.
var faultPresets = map[string]func(hosts int, seed int64) *faultnet.Plan{
	"drop-heavy": func(hosts int, seed int64) *faultnet.Plan {
		return &faultnet.Plan{Seed: seed, Drop: 0.25, Dup: 0.15}
	},
	"reorder-heavy": func(hosts int, seed int64) *faultnet.Plan {
		return &faultnet.Plan{Seed: seed, Drop: 0.05, Reorder: 0.6, Jitter: 3 * sim.Millisecond}
	},
	"partition-heal": func(hosts int, seed int64) *faultnet.Plan {
		half := hosts / 2
		var a, b uint64
		for h := 0; h < hosts; h++ {
			if h < half {
				a |= 1 << uint(h)
			} else {
				b |= 1 << uint(h)
			}
		}
		return &faultnet.Plan{
			Seed: seed,
			Drop: 0.05,
			Partitions: []faultnet.Partition{
				{A: a, B: b, From: sim.Time(2 * sim.Millisecond), Until: sim.Time(12 * sim.Millisecond)},
			},
		}
	},
	"crash-restart": func(hosts int, seed int64) *faultnet.Plan {
		return &faultnet.Plan{Seed: seed, Drop: 0.02, Crashes: []faultnet.Crash{
			{Host: hosts - 1, At: sim.Time(2 * sim.Millisecond), RestartAt: sim.Time(8 * sim.Millisecond)},
			// The manager / allocation authority itself.
			{Host: 0, At: sim.Time(15 * sim.Millisecond), RestartAt: sim.Time(22 * sim.Millisecond)},
		}}
	},
}

// FaultNames lists the available fault presets, sorted.
func FaultNames() []string {
	names := make([]string, 0, len(faultPresets))
	for name := range faultPresets { //detlint:ok sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FaultPlan builds the named fault preset for a cluster of hosts,
// seeded with seed.
func FaultPlan(name string, hosts int, seed int64) (*faultnet.Plan, error) {
	mk, ok := faultPresets[name]
	if !ok {
		return nil, fmt.Errorf("mcheck: unknown fault preset %q (have %v)", name, FaultNames())
	}
	return mk(hosts, seed), nil
}
