//go:build invariants

package cluster_test

import (
	"testing"

	"millipage/internal/check"
	"millipage/internal/dsm"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// TestChaosServiceHeaderPoolBalances: under every protocol, on a clean
// wire and a drop-heavy one, at 4 hosts and at 24, where barriers combine
// up the tree in group headers, every header the DRF program's mallocs,
// barriers, locks and faults took from the kernel's freelist is back on
// it once the threads have finished, and none twice, which the
// freelist's own checks would have caught on the way. (The pools count
// what they make only under -tags invariants, hence the build tag.)
func TestChaosServiceHeaderPoolBalances(t *testing.T) {
	for _, pr := range protocols() {
		for _, c := range []struct {
			name  string
			hosts int
			plan  *faultnet.Plan
		}{
			{"clean", 4, nil}, {"drop-heavy", 4, schedules()[0].plan(4, 17)},
			{"tree-clean", 24, nil}, {"tree-drop-heavy", 24, schedules()[0].plan(24, 17)},
		} {
			hosts, plan := c.hosts, c.plan
			t.Run(pr.name+"/"+c.name, func(t *testing.T) {
				d := &check.DRF{Hosts: hosts, Rounds: 3, LockReps: 4}
				sys := runChaos(t, pr, hosts, 5, plan, func(_ *dsm.System, w check.AppThread) {
					d.Body(w)
					// Outlast every retransmission, then end on a rendezvous
					// so only its own (consumed) messages are in flight when
					// the last thread leaves.
					w.Compute(sim.Second)
					w.Barrier()
				})
				must(t, d.Err())
				if live := sys.LiveHeaders(); live != 0 {
					t.Fatalf("%d headers are still owned after the run (recycled twice, if negative)", live)
				}
			})
		}
	}
}
