package check_test

import (
	"testing"

	"millipage/internal/check"
	"millipage/internal/dsm"
	"millipage/internal/registry"
)

// must fails the test if err is not nil.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// newDSM builds a small millipage cluster through the registry. The
// protocol sweep lives in internal/cluster's conformance suite; this
// test only proves the exported workload bodies are runnable and their
// oracles accept a correct protocol.
func newDSM(t *testing.T, hosts int, seed int64) *dsm.System {
	t.Helper()
	spec, _ := registry.Lookup("millipage")
	sys, err := spec.New(registry.Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8, Seed: seed})
	must(t, err)
	return sys
}

// runDSM executes body on the default schedule, no faults.
func runDSM(t *testing.T, hosts int, body func(w check.AppThread)) {
	t.Helper()
	must(t, newDSM(t, hosts, 1).Run(func(w *dsm.Thread) { body(w) }))
}

func TestWorkloadsPassOnCorrectProtocol(t *testing.T) {
	t.Run("message-passing", func(t *testing.T) {
		wl := &check.MessagePassing{}
		runDSM(t, 3, wl.Body) // host 2 is background traffic
		must(t, wl.Err())
	})
	t.Run("dekker", func(t *testing.T) {
		wl := &check.Dekker{}
		runDSM(t, 2, wl.Body)
		must(t, wl.Err())
	})
	t.Run("drf", func(t *testing.T) {
		wl := &check.DRF{Hosts: 3, Rounds: 2, LockReps: 2, Turns: 1}
		runDSM(t, 3, wl.Body)
		must(t, wl.Err())
	})
	t.Run("merge", func(t *testing.T) {
		wl := &check.ConcurrentMerge{Hosts: 3, Rounds: 2}
		runDSM(t, 3, wl.Body)
		must(t, wl.Err())
	})
	t.Run("dirty-acquire", func(t *testing.T) {
		wl := &check.DirtyAcquire{Hosts: 3}
		runDSM(t, 3, wl.Body)
		must(t, wl.Err())
	})
	t.Run("chunk-extend", func(t *testing.T) {
		wl := &check.ChunkExtend{}
		runDSM(t, 3, wl.Body)
		must(t, wl.Err())
	})
	t.Run("home-move", func(t *testing.T) {
		wl := &check.HomeMove{Hosts: 3}
		runDSM(t, 3, wl.Body)
		must(t, wl.Err())
	})
	t.Run("chunk-grow", func(t *testing.T) {
		wl := &check.ChunkGrow{}
		runDSM(t, 3, wl.Body)
		must(t, wl.Err())
	})
	t.Run("swmr", func(t *testing.T) {
		sys := newDSM(t, 3, 2)
		wl := &check.SWMRSweep{Words: 3, Iters: 8, Seed: 2, Prots: sys}
		must(t, sys.Run(func(w *dsm.Thread) { wl.Body(w) }))
		must(t, wl.Err())
	})
}
