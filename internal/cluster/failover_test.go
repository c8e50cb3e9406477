// Home-crash conformance: the chaos battery's sharing invariants re-run
// with home-based placement (HomeMod) — millipage's directory, and for the
// data-race-free oracles lrc-mw's homes too — under fault schedules
// that crash host 1 — the home of every minipage the workloads below
// lean on — in the middle of the request burst. Fail-restart with durable
// memory keeps the dead home's directory shard and home copies; the
// transport re-delivers the requests it missed, once each, when it is
// back, so the cluster must finish with the oracles intact, exactly-once, and two runs
// of any schedule must be bit-identical.
package cluster_test

import (
	"testing"

	"millipage/internal/check"
	"millipage/internal/dsm"
	"millipage/internal/faultnet"
	"millipage/internal/registry"
	"millipage/internal/sim"
)

// failoverVictim is the hot home: every workload below leans on
// minipages homed at host 1, and every schedule kills host 1 a virtual
// millisecond in — mid-burst, well before any barrier drains.
const failoverVictim = 1

// failoverSchedules augments each of the four chaos presets with a
// crash of the hot home, down for 28ms: every request it holds or is
// sent meanwhile waits out the outage in its sender's transport log.
func failoverSchedules() []schedule {
	out := make([]schedule, 0, 4)
	for _, sc := range schedules() {
		base := sc
		out = append(out, schedule{base.name, func(hosts int, seed int64) *faultnet.Plan {
			pl := base.plan(hosts, seed)
			pl.Crashes = append(pl.Crashes, faultnet.Crash{
				Host:      failoverVictim,
				At:        sim.Time(1 * sim.Millisecond),
				RestartAt: sim.Time(29 * sim.Millisecond),
			})
			return pl
		}})
	}
	return out
}

// homeBasedMillipage is millipage with each minipage's directory at host
// id % hosts.
func homeBasedMillipage() protoRun {
	spec, _ := registry.Lookup("millipage")
	return protoRun{name: "millipage-home", spec: spec, homeOf: dsm.HomeMod}
}

// homeBased are the protocols the data-race-free failover oracles run:
// home-based millipage and lrc-mw, whose default placement also homes
// minipage id at host id % hosts, so host 1 holds the diffs of every
// minipage it homes when it dies.
func homeBased() []protoRun {
	spec, _ := registry.Lookup("lrc-mw")
	return []protoRun{homeBasedMillipage(), {name: "lrc-mw", spec: spec}}
}

// TestFailoverDRFOracle: barrier hand-offs and a lock-guarded
// accumulator with the hot home killed mid-burst, under all four fault
// presets. The agreement oracle proves no increment was lost or doubled
// across the outage.
func TestFailoverDRFOracle(t *testing.T) {
	const hosts = 4
	for _, sc := range failoverSchedules() {
		t.Run(sc.name, func(t *testing.T) {
			for _, pr := range homeBased() {
				t.Run(pr.name, func(t *testing.T) {
					wl := &check.DRF{Hosts: hosts, Rounds: 3, LockReps: 2}
					runChaos(t, pr, hosts, 1, sc.plan(hosts, 7), func(sys *dsm.System, w check.AppThread) {
						wl.Body(w)
					})
					if err := wl.Err(); err != nil {
						t.Fatalf("%s: %v", sc.name, err)
					}
				})
			}
		})
	}
}

// TestFailoverSWMR: the Single-Writer/Multiple-Readers sweep, asserted
// after every completed operation, with the hot home killed mid-burst
// under all four fault presets.
func TestFailoverSWMR(t *testing.T) {
	const hosts = 4
	pr := homeBasedMillipage()
	for _, sc := range failoverSchedules() {
		t.Run(sc.name, func(t *testing.T) {
			wl := &check.SWMRSweep{Words: 4, Iters: 16, Seed: 11}
			runChaos(t, pr, hosts, 2, sc.plan(hosts, 11), func(sys *dsm.System, w check.AppThread) {
				if wl.Prots == nil {
					wl.Prots = sys
				}
				wl.Body(w)
			})
			must(t, wl.Err())
		})
	}
}

// TestFailoverConcurrentMerge: concurrent writers to disjoint bytes of
// one minipage across the kill window — the merge oracle catches any
// write lost while the minipage's home was down.
func TestFailoverConcurrentMerge(t *testing.T) {
	const hosts = 4
	for _, sc := range failoverSchedules() {
		t.Run(sc.name, func(t *testing.T) {
			for _, pr := range homeBased() {
				t.Run(pr.name, func(t *testing.T) {
					wl := &check.ConcurrentMerge{Hosts: hosts, Rounds: 3}
					runChaos(t, pr, hosts, 1, sc.plan(hosts, 9), func(sys *dsm.System, w check.AppThread) {
						wl.Body(w)
					})
					if err := wl.Err(); err != nil {
						t.Fatalf("%s: %v", sc.name, err)
					}
				})
			}
		})
	}
}

// TestFailoverDeterminism runs the lock-guarded accumulator twice under
// the drop-heaviest kill schedule and requires bit-identical virtual
// time and transport counters: the crash, the retransmissions and the
// recovery all replay exactly.
func TestFailoverDeterminism(t *testing.T) {
	const hosts = 4
	pr := homeBasedMillipage()
	sc := failoverSchedules()[0] // drop-heavy: the most retransmission-prone preset
	var prints [2]string
	for run := 0; run < 2; run++ {
		var acc uint64
		sys := runChaos(t, pr, hosts, 5, sc.plan(hosts, 17), func(sys *dsm.System, w check.AppThread) {
			if w.Host() == 0 {
				acc = w.Malloc(64)
				w.WriteU32(acc, 0)
			}
			w.Barrier()
			for i := 0; i < 3; i++ {
				w.Lock(1)
				w.WriteU32(acc, w.ReadU32(acc)+uint32(w.Host()+1))
				w.Unlock(1)
				w.Compute(200 * sim.Microsecond)
			}
			w.Barrier()
		})
		prints[run] = chaosFingerprint(sys)
	}
	if prints[0] != prints[1] {
		t.Fatalf("two runs of the same kill schedule diverged:\n run0: %s\n run1: %s", prints[0], prints[1])
	}
}
