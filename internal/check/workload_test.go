package check_test

import (
	"testing"

	"millipage/internal/check"
	"millipage/internal/dsm"
	"millipage/internal/registry"
)

// newDSM builds a small millipage cluster through the registry. The
// protocol sweep lives in internal/cluster's conformance suite; this
// test only proves the exported workload bodies are runnable and their
// oracles accept a correct protocol.
func newDSM(t *testing.T, hosts int, seed int64) *dsm.System {
	t.Helper()
	sys, err := registry.New("millipage", registry.Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// runDSM executes body on the default schedule, no faults.
func runDSM(t *testing.T, hosts int, body func(w check.AppThread)) {
	t.Helper()
	if err := newDSM(t, hosts, 1).Run(func(w *dsm.Thread) { body(w) }); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadsPassOnCorrectProtocol(t *testing.T) {
	t.Run("message-passing", func(t *testing.T) {
		wl := &check.MessagePassing{}
		runDSM(t, 3, wl.Body) // host 2 is background traffic
		if err := wl.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("dekker", func(t *testing.T) {
		wl := &check.Dekker{}
		runDSM(t, 2, wl.Body)
		if err := wl.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("drf", func(t *testing.T) {
		wl := &check.DRF{Hosts: 3, Rounds: 2, LockReps: 2, Turns: 1}
		runDSM(t, 3, wl.Body)
		if err := wl.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("merge", func(t *testing.T) {
		wl := &check.ConcurrentMerge{Hosts: 3, Rounds: 2}
		runDSM(t, 3, wl.Body)
		if err := wl.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("dirty-acquire", func(t *testing.T) {
		wl := &check.DirtyAcquire{Hosts: 3}
		runDSM(t, 3, wl.Body)
		if err := wl.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("chunk-extend", func(t *testing.T) {
		wl := &check.ChunkExtend{}
		runDSM(t, 3, wl.Body)
		if err := wl.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("home-move", func(t *testing.T) {
		wl := &check.HomeMove{Hosts: 3}
		runDSM(t, 3, wl.Body)
		if err := wl.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("chunk-grow", func(t *testing.T) {
		wl := &check.ChunkGrow{}
		runDSM(t, 3, wl.Body)
		if err := wl.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("swmr", func(t *testing.T) {
		sys := newDSM(t, 3, 2)
		wl := &check.SWMRSweep{Words: 3, Iters: 8, Seed: 2, Prots: sys}
		if err := sys.Run(func(w *dsm.Thread) { wl.Body(w) }); err != nil {
			t.Fatal(err)
		}
		if err := wl.Err(); err != nil {
			t.Fatal(err)
		}
	})
}
