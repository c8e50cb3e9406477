//go:build invariants

package cluster_test

import (
	"testing"

	"millipage/internal/check"
	"millipage/internal/cluster"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// TestServiceHeaderPoolBalances: under every protocol, on a clean wire
// and a drop-heavy one, every service header the DRF program's mallocs,
// barriers and locks took from the kernel's freelist is back on it once
// the threads have finished — recycled by the requester's handler under
// the SC protocols, by the kernel after Acquire under the
// release-consistent ones — and none twice, which the freelist's own
// checks would have caught on the way.
func TestServiceHeaderPoolBalances(t *testing.T) {
	const hosts = 4
	for _, pr := range protocols() {
		for _, plan := range []*faultnet.Plan{nil, {Seed: 17, Drop: 0.25, Dup: 0.15}} {
			name := pr.name + "/clean"
			if plan != nil {
				name = pr.name + "/drop-heavy"
			}
			t.Run(name, func(t *testing.T) {
				sys, err := pr.make(hosts, 5, plan)
				if err != nil {
					t.Fatal(err)
				}
				rt := sys.Runtime()
				rt.Eng.At(sim.Time(chaosWatchdog), rt.Eng.Stop)
				d := &check.DRF{Hosts: hosts, Rounds: 3, LockReps: 4}
				done := 0
				err = sys.Run(func(w cluster.AppThread) {
					d.Body(w)
					// Outlast every retransmission, then end on a rendezvous
					// so only its own (consumed) messages are in flight when
					// the last thread leaves.
					w.Compute(sim.Second)
					w.Barrier()
					done++
				})
				if err != nil {
					t.Fatal(err)
				}
				if done != hosts {
					t.Fatalf("watchdog: %d of %d threads finished", done, hosts)
				}
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
