// Chaos conformance: the same sharing invariants as conformance_test.go,
// re-run under seeded fault injection — frame drops, duplication,
// reordering, link partitions that heal, and host crash/restart
// (including the manager host). The transport's reliability layer, the
// one recovery layer, must make every run terminate
// with the invariants intact; a watchdog converts a livelock into a
// test failure instead of a hang.
package cluster_test

import (
	"fmt"
	"testing"

	"millipage/internal/check"
	"millipage/internal/dsm"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// must fails the test if err is not nil.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// chaosWatchdog bounds a chaos run's virtual time: well past any
// retransmission backoff chain, far below forever.
const chaosWatchdog = 120 * sim.Second

// schedule is one named fault plan of the chaos matrix.
type schedule struct {
	name string
	plan func(hosts int, seed int64) *faultnet.Plan
}

// schedules returns the four-point chaos matrix. Partition and crash
// windows open half a virtual millisecond in: the shortest workload
// below ends about 1.3 ms in on a clean wire, and runChaos fails a cell
// that ends before its windows open or whose windows drop no frame.
func schedules() []schedule {
	return []schedule{
		{"drop-heavy", func(hosts int, seed int64) *faultnet.Plan {
			return &faultnet.Plan{Seed: seed, Drop: 0.25, Dup: 0.15}
		}},
		{"reorder-heavy", func(hosts int, seed int64) *faultnet.Plan {
			return &faultnet.Plan{Seed: seed, Drop: 0.05, Reorder: 0.6, Jitter: 3 * sim.Millisecond}
		}},
		{"partition-heal", func(hosts int, seed int64) *faultnet.Plan {
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
					{A: a, B: b, From: sim.Time(500 * sim.Microsecond), Until: sim.Time(10500 * sim.Microsecond)},
				},
			}
		}},
		{"crash-restart", func(hosts int, seed int64) *faultnet.Plan {
			crashes := []faultnet.Crash{
				{Host: hosts - 1, At: sim.Time(500 * sim.Microsecond), RestartAt: sim.Time(6500 * sim.Microsecond)},
				// The manager / allocation authority itself.
				{Host: 0, At: sim.Time(1 * sim.Millisecond), RestartAt: sim.Time(8 * sim.Millisecond)},
			}
			return &faultnet.Plan{Seed: seed, Drop: 0.02, Crashes: crashes}
		}},
	}
}

// runChaos drives body on a freshly built cluster — faulty, unless plan
// is nil — with the watchdog armed, and fails the test on timeout instead
// of hanging.
func runChaos(t *testing.T, pr protoRun, hosts int, seed int64, plan *faultnet.Plan,
	body func(sys *dsm.System, w check.AppThread)) *dsm.System {
	t.Helper()
	sys, err := pr.make(hosts, seed, plan)
	must(t, err)
	if sys.Net.FaultsEnabled() != (plan != nil) {
		t.Fatal("fault plan did not arm")
	}
	sys.Eng.At(sim.Time(chaosWatchdog), sys.Eng.Stop)
	run(t, sys, func(w *dsm.Thread) { body(sys, w) })
	if plan != nil {
		metFault(t, sys, plan)
	}
	return sys
}

// metFault fails a run that ended before one of its plan's crash or
// partition windows opened, or whose windows dropped no frame: such a
// cell tests the fault-free wire under another name.
func metFault(t *testing.T, sys *dsm.System, plan *faultnet.Plan) {
	t.Helper()
	var down, cut uint64
	for i := 0; i < sys.NumHosts(); i++ {
		st := sys.Net.Endpoint(i).Stats()
		down, cut = down+st.DroppedDown, cut+st.Partitioned
	}
	end := sim.Time(sys.Elapsed())
	for _, c := range plan.Crashes {
		if end <= c.At {
			t.Errorf("the run ended at %v, before host %d's crash at %v", end, c.Host, c.At)
		}
	}
	for _, p := range plan.Partitions {
		if end <= p.From {
			t.Errorf("the run ended at %v, before the partition at %v", end, p.From)
		}
	}
	if len(plan.Crashes) > 0 && down == 0 {
		t.Errorf("the crashes discarded no frame (DroppedDown 0 on every host)")
	}
	if len(plan.Partitions) > 0 && cut == 0 {
		t.Errorf("no frame was sent into the partition (Partitioned 0 on every host)")
	}
}

// TestChaosDRFOracle is the data-race-free oracles under every fault
// schedule, for every protocol: barrier hand-offs, a lock-guarded
// accumulator, a lock taken over a dirty copy and a minipage whose home
// moves to its writer (under lrc-mw) must produce the exact oracle state
// no matter what the wire does.
func TestChaosDRFOracle(t *testing.T) {
	const hosts = 4
	for _, pr := range protocols() {
		for _, sc := range schedules() {
			t.Run(pr.name+"/"+sc.name, func(t *testing.T) {
				for _, wl := range drfWorkloads(hosts) {
					runChaos(t, pr, hosts, 1, sc.plan(hosts, 7), func(sys *dsm.System, w check.AppThread) {
						wl.body(w)
					})
					if err := wl.err(); err != nil {
						t.Fatalf("%s/%s: %v", pr.name, sc.name, err)
					}
				}
			})
		}
	}
}

// TestChaosConcurrentMerge is the multiple-writer agreement oracle
// under every fault schedule, for every protocol: concurrent writers to
// disjoint bytes of one minipage, separated by barriers, must converge
// on the oracle state no matter what the wire does. Under lrc-mw this
// drives twin creation, diff flushes and home fetches through drops,
// partitions and crash/restart windows.
func TestChaosConcurrentMerge(t *testing.T) {
	const hosts = 4
	for _, pr := range protocols() {
		for _, sc := range schedules() {
			t.Run(pr.name+"/"+sc.name, func(t *testing.T) {
				wl := &check.ConcurrentMerge{Hosts: hosts, Rounds: 3}
				runChaos(t, pr, hosts, 1, sc.plan(hosts, 9), func(sys *dsm.System, w check.AppThread) {
					wl.Body(w)
				})
				if err := wl.Err(); err != nil {
					t.Fatalf("%s/%s: %v", pr.name, sc.name, err)
				}
			})
		}
	}
}

// TestChaosSWMR re-runs the Single-Writer/Multiple-Readers sweep under
// every fault schedule for the SC protocols, asserting the invariant
// after every completed operation.
func TestChaosSWMR(t *testing.T) {
	const hosts = 4
	for _, pr := range protocols() {
		if !pr.spec.SC {
			continue
		}
		for _, sc := range schedules() {
			t.Run(pr.name+"/"+sc.name, func(t *testing.T) {
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
}

// TestChaosSCMessagePassing is the publish/subscribe litmus under
// faults: observing the flag must still imply observing the data, even
// while the wire drops, reorders and partitions.
func TestChaosSCMessagePassing(t *testing.T) {
	for _, pr := range protocols() {
		if !pr.spec.SC {
			continue
		}
		for _, sc := range schedules() {
			t.Run(pr.name+"/"+sc.name, func(t *testing.T) {
				wl := &check.MessagePassing{}
				runChaos(t, pr, 4, 3, sc.plan(4, 13), func(sys *dsm.System, w check.AppThread) {
					wl.Body(w)
				})
				if err := wl.Err(); err != nil {
					t.Fatalf("%s/%s: %v", pr.name, sc.name, err)
				}
			})
		}
	}
}

// chaosFingerprint reduces one finished run to a comparable value:
// elapsed virtual time plus every endpoint's full transport counters.
func chaosFingerprint(sys *dsm.System) string {
	s := fmt.Sprintf("elapsed=%d", sys.Elapsed())
	for i := 0; i < sys.NumHosts(); i++ {
		s += fmt.Sprintf(";%+v", sys.Net.Endpoint(i).Stats())
	}
	return s
}

// TestChaosDeterminism runs the DRF workload twice per protocol under
// the everything-at-once schedule and requires bit-identical virtual
// time and transport counters — the replayability guarantee that makes
// fault schedules debuggable.
func TestChaosDeterminism(t *testing.T) {
	const hosts = 4
	everything := func(seed int64) *faultnet.Plan {
		pl := schedules()[3].plan(hosts, seed) // crash-restart
		pl.Drop, pl.Dup = 0.15, 0.1
		pl.Reorder, pl.Jitter = 0.3, 2*sim.Millisecond
		pl.Partitions = schedules()[2].plan(hosts, seed).Partitions
		return pl
	}
	for _, pr := range protocols() {
		t.Run(pr.name, func(t *testing.T) {
			var prints [2]string
			for run := 0; run < 2; run++ {
				var acc uint64
				sys := runChaos(t, pr, hosts, 5, everything(17), func(sys *dsm.System, w check.AppThread) {
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
				t.Fatalf("two runs of the same fault schedule diverged:\n run0: %s\n run1: %s", prints[0], prints[1])
			}
		})
	}
}
