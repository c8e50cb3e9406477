package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMsgHopAllocFree pins the clean message path's steady state: with
// pooled envelopes and tracing off, a full one-hop send/deliver/handle
// cycle performs zero heap allocations per message. It reuses the
// perfbench workload so the regression test and the recorded benchmark
// measure exactly the same path.
func TestMsgHopAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	r := testing.Benchmark(benchMsgHop)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Fatalf("message hop allocates %d objects/op in steady state, want 0", allocs)
	}
}

// pinnedPoint returns the row BENCH_sim.json at the repo root pins for the
// named benchmark; the gates below fence the current simulator at twice
// its deterministic columns.
func pinnedPoint(t *testing.T, name string) PerfPoint {
	t.Helper()
	blob, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Skipf("no pinned report: %v", err)
	}
	var report struct {
		Benchmarks []PerfPoint `json:"benchmarks"`
	}
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("BENCH_sim.json: %v", err)
	}
	for _, p := range report.Benchmarks {
		if p.Name == name && p.AllocsPerOp > 0 && p.BytesPerOp > 0 {
			return p
		}
	}
	t.Fatalf("BENCH_sim.json has no %s allocs/op and bytes/op pin", name)
	return PerfPoint{}
}

// TestE2ESOR8AllocsRegression is the allocation gate on the end-to-end
// acceptance workload: it reads the E2ESOR8 allocs/op pinned in
// BENCH_sim.json at the repo root and fails if the current simulator
// exceeds twice that value. Allocation counts are deterministic enough
// for a 2x fence (unlike wall-clock time, which shared CI boxes make
// unpinnable), so this catches a pooling regression — a leaked fast
// path, a pool gated off, per-message garbage reintroduced — before it
// shows up as a slow simulator.
func TestE2ESOR8AllocsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	pinned := pinnedPoint(t, "E2ESOR8").AllocsPerOp
	r := testing.Benchmark(benchE2E("E2ESOR8"))
	if got := r.AllocsPerOp(); got > 2*pinned {
		t.Fatalf("E2ESOR8 allocates %d objects/op, more than 2x the pinned %d", got, pinned)
	}
}

// TestE2ESOR64BytesRegression is the footprint gate: 64 hosts each map
// the whole shared image n+1 times and touch little beyond their own band
// of rows, so bytes/op stays near the pinned ~9 MB only while memory
// objects are demand-zero and page-table entries packed. An eagerly
// allocated image per host (75 MB/op before they became sparse), a fat
// PTE or a fat directory entry multiplies by the host count and crosses
// the 2x fence at once.
func TestE2ESOR64BytesRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	pinned := pinnedPoint(t, "E2ESOR64").BytesPerOp
	r := testing.Benchmark(benchE2E("E2ESOR64"))
	if got := r.AllocedBytesPerOp(); got > 2*pinned {
		t.Fatalf("64-host SOR allocates %d bytes/op, more than 2x the pinned %d", got, pinned)
	}
}

// TestE2ESOR64ParAllocsRegression extends the allocation gate to the
// parallel engine's steady state, against the ParSpeedup row pinned in
// BENCH_sim.json. The sharded path has its own ways to regress that the
// sequential workload never exercises: goroutines spawned per window
// instead of pooled, a sorting closure or reflect swapper on the merge
// barrier, outbox capacity dropped instead of recycled — each one
// multiplies by the tens of thousands of windows in a run.
func TestE2ESOR64ParAllocsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	pinned := pinnedPoint(t, "ParSpeedup").AllocsPerOp
	r := testing.Benchmark(benchE2E("ParSpeedup"))
	if got := r.AllocsPerOp(); got > 2*pinned {
		t.Fatalf("64-host parallel SOR allocates %d objects/op, more than 2x the pinned %d", got, pinned)
	}
}

// TestE2EServeAllocsRegression gates the serving path's steady state: it
// reads the E2EServe8 allocs/op pinned in BENCH_sim.json at the repo
// root and fails if the current scenario run exceeds twice that value.
// The pin is setup-dominated (~1.2k allocations for a 20k-op scenario),
// so per-op garbage on the GET/PUT hot loop — a boxed histogram add, an
// interface escape in the generator, a per-response oracle allocation —
// multiplies past the fence immediately.
func TestE2EServeAllocsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	pinned := pinnedPoint(t, "E2EServe8").AllocsPerOp
	r := testing.Benchmark(benchE2E("E2EServe8"))
	if got := r.AllocsPerOp(); got > 2*pinned {
		t.Fatalf("serving scenario allocates %d objects/op, more than 2x the pinned %d", got, pinned)
	}
}

// TestE2EServeLossyAllocsRegression gates the armed path the same way:
// the crash-restart serving scenario (reliability layer on, retry timers
// and transaction stamps on every fault, two hosts crashing and
// recovering) must stay within twice its pinned allocs/op. One request,
// reply or retry allocated per operation instead of drawn from a
// freelist puts tens of thousands of objects on a pin of about a
// thousand — which is what the path cost while pooling was switched off
// under a fault plan.
func TestE2EServeLossyAllocsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	pinned := pinnedPoint(t, "E2EServeLossy").AllocsPerOp
	r := testing.Benchmark(benchE2E("E2EServeLossy"))
	if got := r.AllocsPerOp(); got > 2*pinned {
		t.Fatalf("lossy serving scenario allocates %d objects/op, more than 2x the pinned %d", got, pinned)
	}
}
