//go:build invariants

package cluster_test

import (
	"testing"

	"millipage/internal/check"
	"millipage/internal/cluster"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// TestChaosServiceHeaderPoolBalances: under every protocol, on a clean
// wire and a drop-heavy one, every service header the DRF program's
// mallocs, barriers and locks took from the kernel's freelist is back on
// it once the threads have finished, and none twice, which the
// freelist's own checks would have caught on the way. (The pools count
// what they make only under -tags invariants, hence the build tag.)
func TestChaosServiceHeaderPoolBalances(t *testing.T) {
	const hosts = 4
	for _, pr := range protocols() {
		for name, plan := range map[string]*faultnet.Plan{"clean": nil, "drop-heavy": schedules()[0].plan(hosts, 17)} {
			t.Run(pr.name+"/"+name, func(t *testing.T) {
				d := &check.DRF{Hosts: hosts, Rounds: 3, LockReps: 4}
				rt := runChaos(t, pr, hosts, 5, plan, func(_ *cluster.Runtime, w cluster.AppThread) {
					d.Body(w)
					// Outlast every retransmission, then end on a rendezvous
					// so only its own (consumed) messages are in flight when
					// the last thread leaves.
					w.Compute(sim.Second)
					w.Barrier()
				})
				if err := d.Err(); err != nil {
					t.Fatal(err)
				}
				if live := rt.LiveServiceHeaders(); live != 0 {
					t.Fatalf("%d service headers are still owned after the run (recycled twice, if negative)", live)
				}
			})
		}
	}
}
