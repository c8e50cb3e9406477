// Failover conformance: the chaos battery's sharing invariants re-run
// with replicated directory management, under fault schedules that kill
// the hot shard's primary in the middle of the request burst. The view
// service must promote the synced backup and the cluster must finish
// with the oracles intact — exactly-once, no stall until the dead
// host's restart — and two runs of any schedule must be bit-identical.
package cluster_test

import (
	"testing"

	"millipage/internal/check"
	"millipage/internal/cluster"
	"millipage/internal/faultnet"
	"millipage/internal/registry"
	"millipage/internal/sim"
)

// failoverVictim is the hot shard's primary: every workload below leans
// on minipages homed at host 1, and every schedule kills host 1 a few
// virtual milliseconds in — mid-burst, well before any barrier drains.
const failoverVictim = 1

// failoverSchedules augments each of the four chaos presets with a
// crash of the hot shard's primary. The victim stays down long enough
// (30ms) that any protocol stalling until its restart trips the
// conformance timing rather than quietly riding it out.
func failoverSchedules() []schedule {
	out := make([]schedule, 0, 4)
	for _, sc := range schedules() {
		base := sc
		out = append(out, schedule{base.name, func(hosts int, seed int64) *faultnet.Plan {
			pl := base.plan(hosts, seed)
			pl.Crashes = append(pl.Crashes, faultnet.Crash{
				Host:      failoverVictim,
				At:        sim.Time(2 * sim.Millisecond),
				RestartAt: sim.Time(30 * sim.Millisecond),
			})
			return pl
		}})
	}
	return out
}

// replicatedMillipage is the one protocol under test here: millipage
// with home-based management and primary/backup shard replication.
func replicatedMillipage() protoRun {
	spec, _ := registry.Lookup("millipage")
	return protoRun{name: "millipage-repl", spec: spec, repl: true}
}

// TestFailoverDRFOracle: barrier hand-offs and a lock-guarded
// accumulator with the hot shard's primary killed mid-burst, under all
// four fault presets. The agreement oracle proves no increment was lost
// or doubled across the view change.
func TestFailoverDRFOracle(t *testing.T) {
	const hosts = 4
	pr := replicatedMillipage()
	for _, sc := range failoverSchedules() {
		t.Run(sc.name, func(t *testing.T) {
			wl := &check.DRF{Hosts: hosts, Rounds: 3, LockReps: 2}
			runChaos(t, pr, hosts, 1, sc.plan(hosts, 7), func(rt *cluster.Runtime, w cluster.AppThread) {
				wl.Body(w)
			})
			if err := wl.Err(); err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
		})
	}
}

// TestFailoverSWMR: the Single-Writer/Multiple-Readers sweep, asserted
// after every completed operation, with the hot shard's primary killed
// mid-burst under all four fault presets.
func TestFailoverSWMR(t *testing.T) {
	const hosts = 4
	pr := replicatedMillipage()
	for _, sc := range failoverSchedules() {
		t.Run(sc.name, func(t *testing.T) {
			wl := &check.SWMRSweep{Words: 4, Iters: 16, Seed: 11}
			runChaos(t, pr, hosts, 2, sc.plan(hosts, 11), func(rt *cluster.Runtime, w cluster.AppThread) {
				if wl.Prots == nil {
					wl.Prots = check.RuntimeProts{RT: rt}
				}
				wl.Body(w)
			})
			if err := wl.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFailoverConcurrentMerge: concurrent writers to disjoint bytes of
// one minipage across the kill window — the merge oracle catches any
// write lost when the shard's directory moved hosts.
func TestFailoverConcurrentMerge(t *testing.T) {
	const hosts = 4
	pr := replicatedMillipage()
	for _, sc := range failoverSchedules() {
		t.Run(sc.name, func(t *testing.T) {
			wl := &check.ConcurrentMerge{Hosts: hosts, Rounds: 3}
			runChaos(t, pr, hosts, 1, sc.plan(hosts, 9), func(rt *cluster.Runtime, w cluster.AppThread) {
				wl.Body(w)
			})
			if err := wl.Err(); err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
		})
	}
}

// TestFailoverDeterminism runs the lock-guarded accumulator twice under
// the drop-heaviest kill schedule and requires bit-identical virtual
// time and transport counters: view changes, promotions and re-drives
// all replay exactly.
func TestFailoverDeterminism(t *testing.T) {
	const hosts = 4
	pr := replicatedMillipage()
	sc := failoverSchedules()[0] // drop-heavy: the most retry-prone preset
	var prints [2]string
	for run := 0; run < 2; run++ {
		var acc uint64
		rt := runChaos(t, pr, hosts, 5, sc.plan(hosts, 17), func(rt *cluster.Runtime, w cluster.AppThread) {
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
		prints[run] = chaosFingerprint(rt)
	}
	if prints[0] != prints[1] {
		t.Fatalf("two runs of the same kill schedule diverged:\n run0: %s\n run1: %s", prints[0], prints[1])
	}
}
