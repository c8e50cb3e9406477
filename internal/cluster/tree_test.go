// Barrier-tree conformance: the oracles across barriers that combine up the
// tree, past 9 hosts, where a thread's arrival reaches the Coordinator in
// its node's group and not on its own host's link, behind or ahead of the
// unlocks that host sent there.
package cluster_test

import (
	"fmt"
	"testing"

	"millipage/internal/check"
	"millipage/internal/dsm"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// TestTreeDRFAgreement: the DRF oracle under every protocol, and the
// message-passing litmus under the SC ones, at 24 and 40 hosts.
func TestTreeDRFAgreement(t *testing.T) {
	for _, hosts := range []int{24, 40} {
		for _, pr := range protocols() {
			t.Run(fmt.Sprintf("%s/%d", pr.name, hosts), func(t *testing.T) {
				sys, err := pr.make(hosts, 1, nil)
				must(t, err)
				d := &check.DRF{Hosts: hosts, Rounds: 2, LockReps: 2}
				run(t, sys, func(w *dsm.Thread) { d.Body(w) })
				must(t, d.Err())
				if !pr.spec.SC {
					return
				}
				if sys, err = pr.make(hosts, 1, nil); err != nil {
					t.Fatal(err)
				}
				mp := &check.MessagePassing{}
				run(t, sys, func(w *dsm.Thread) { mp.Body(w) })
				must(t, mp.Err())
			})
		}
	}
}

// treeVictim is an interior node of the 24-host tree: it collects hosts
// 9-16 and sends their group to the Coordinator.
const treeVictim = 1

// TestChaosTree: under every protocol, at 24 hosts, under drop-heavy and
// with an interior node crashed mid-episode and restarted, the DRF oracle
// holds and every barrier completes exactly once. The seed is one on which
// a drop-heavy wire let lrc-mw hosts' barrier arrivals reach the
// Coordinator, in their groups, ahead of an unlock they sent it before:
// when an arrival carried only its own interval's notice, the unlock's
// notice was logged only after the barrier, and stale copies of the
// accumulator survived it.
func TestChaosTree(t *testing.T) {
	const hosts, seed = 24, 63
	for _, pr := range protocols() {
		// run runs the DRF program under plan and returns the first instant
		// past 2 ms at which treeVictim holds part of an episode.
		run := func(t *testing.T, plan *faultnet.Plan) (held sim.Time) {
			wl := &check.DRF{Hosts: hosts, Rounds: 2, LockReps: 3}
			var sample func()
			sys := runChaos(t, pr, hosts, seed, plan, func(sys *dsm.System, w check.AppThread) {
				if w.ThreadID() == 0 {
					sample = func() {
						if sys.Host(treeVictim).Collected() == 0 {
							sys.Eng.After(10*sim.Microsecond, sample)
						} else if held == 0 {
							held = sys.Eng.Now()
						}
					}
					sys.Eng.At(sim.Time(2*sim.Millisecond), sample)
				}
				wl.Body(w)
			})
			must(t, wl.Err())
			if got, want := sys.Totals().BarrierEpisodes, uint64(2*wl.Rounds+3); got != want {
				t.Fatalf("%d barrier episodes, want %d", got, want)
			}
			return held
		}
		t.Run(pr.name+"/drop-heavy", func(t *testing.T) { run(t, schedules()[0].plan(hosts, seed)) })
		t.Run(pr.name+"/interior-crash", func(t *testing.T) {
			plan := &faultnet.Plan{Seed: seed, Drop: 0.02}
			at := run(t, plan)
			plan.Crashes = []faultnet.Crash{{Host: treeVictim, At: at + 1, RestartAt: at + sim.Time(5*sim.Millisecond)}}
			if again := run(t, plan); at == 0 || again != at {
				t.Fatalf("host %d first held part of an episode at %v, then at %v with the crash: not mid-episode", treeVictim, at, again)
			}
		})
	}
}
