//go:build invariants

package lrc

import (
	"fmt"
	"strings"
	"testing"

	"millipage/internal/check"
	"millipage/internal/cluster"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// TestChaosMWSyncRecordsBalance: every piggyback record lrc-mw hung on a
// barrier arrival, lock request or unlock is back on its freelist once
// the threads have finished — an unlock's recycled by the coordinator's
// log, the others by the acquire that consumed the answer — on a clean
// wire and a drop-heavy one. (The pools count what they make only under
// -tags invariants, hence the build tag.)
func TestChaosMWSyncRecordsBalance(t *testing.T) {
	const hosts = 4
	for name, plan := range map[string]*faultnet.Plan{"clean": nil, "drop-heavy": {Seed: 17, Drop: 0.25, Dup: 0.15}} {
		t.Run(name, func(t *testing.T) {
			s, err := NewMW(cluster.Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8, Seed: 5, Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			d := &check.DRF{Hosts: hosts, Rounds: 3, LockReps: 4}
			err = runMW(s, func(th *MWThread) {
				d.Body(th)
				th.Compute(sim.Second) // outlast every retransmission
				th.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Err(); err != nil {
				t.Fatal(err)
			}
			if live := s.freeSync.Live(); live != 0 {
				t.Fatalf("%d piggyback records are still owned after the run (recycled twice, if negative)", live)
			}
		})
	}
}

// TestMWArenaPoison: a notice epoch's arena is poisoned when the barrier
// after the next resets it, so a notice that outlived its two-barrier
// retention names no minipage, and a write through it is caught by the
// first release into the reset arena.
func TestMWArenaPoison(t *testing.T) {
	s := newMWSys(t, 1, 1)
	caught := ""
	err := runMW(s, func(th *MWThread) {
		h := th.host
		va := th.Malloc(64)
		th.WriteU32(va, 7)
		n := th.release()
		for i := 0; i < 2; i++ {
			h.newEpoch() // the second resets the arena the notice is in
		}
		if n.MPs[0] >= 0 {
			t.Errorf("a reset notice still names minipage %d", n.MPs[0])
		}
		n.MPs[0] = 1 // the write through the stale alias
		th.WriteU32(va, 8)
		defer func() { caught = fmt.Sprint(recover()) }()
		th.release()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(caught, "written after it was recycled") {
		t.Fatalf("release into an arena written through a stale alias: panic %q", caught)
	}
}
