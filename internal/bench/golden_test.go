package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"millipage/internal/apps"
	"millipage/internal/dsm"
	"millipage/internal/pins"
	"millipage/internal/registry"
	"millipage/internal/sim"
	"millipage/internal/trace"
)

// The pins below are virtual-time results of fixed runs, and their
// checksums the oracles the runs must reach. A wall-clock optimization
// must leave every pin as it is; a change to the simulated schedule
// re-records them (package pins) and never the checksums.

func TestGoldenManagerLoad(t *testing.T) {
	cfg := ManagerLoadConfig{Hosts: 4, Vars: 16, Rounds: 3, Seed: 21}
	for _, w := range []struct {
		m      string
		homeOf func(id, hosts int) int
	}{{"central", dsm.HomeCentral}, {"home-based", dsm.HomeMod}} {
		r, err := ManagerLoad(cfg, w.homeOf)
		must(t, err)
		if r.Checksum != 0xc91651f70709a3a9 {
			t.Errorf("%v checksum = %#x, want 0xc91651f70709a3a9", w.m, r.Checksum)
		}
		pins.Check(t, "GoldenManagerLoad/"+w.m, fmt.Sprintf("elapsed=%d pershard=%v", int64(r.Elapsed), r.PerShard))
	}
}

func TestGoldenSOR(t *testing.T) {
	r, err := apps.RunSOR(apps.Params{Hosts: 4, Scale: 0.05, Seed: 3})
	must(t, err)
	if got := fmt.Sprint(r.Check); got != "64" {
		t.Errorf("check = %s, want 64", got)
	}
	pins.Check(t, "GoldenSOR", fmt.Sprintf("timed=%d faults=%d/%d", int64(r.Timed), r.Report.ReadFaults, r.Report.WriteFaults))
}

func TestGoldenWATER(t *testing.T) {
	r, err := apps.RunWATER(apps.Params{Hosts: 4, Scale: 0.05, Seed: 3, ChunkLevel: 2})
	must(t, err)
	if got := fmt.Sprint(r.Check); got != "0.017882280184443315" {
		t.Errorf("check = %s, want 0.017882280184443315", got)
	}
	pins.Check(t, "GoldenWATER", fmt.Sprintf("timed=%d", int64(r.Timed)))
}

// TestGoldenLUPrefetch pins Figure 6's prefetch column where the suite
// fills it: LU prefetches the blocks of its next step, and a read fault
// on a block whose prefetch is still in flight is booked as prefetch
// wait, not as a read fault.
func TestGoldenLUPrefetch(t *testing.T) {
	r, err := apps.RunLU(apps.Params{Hosts: 4, Scale: 0.125, Seed: 3})
	must(t, err)
	var prefetch, readFault sim.Duration
	for _, tr := range r.Report.Threads {
		prefetch, readFault = prefetch+tr.Prefetch, readFault+tr.ReadFault
	}
	if prefetch == 0 {
		t.Fatal("no thread waited on a prefetch")
	}
	pins.Check(t, "GoldenLUPrefetch", fmt.Sprintf("timed=%d prefetch=%d readfault=%d", int64(r.Timed), int64(prefetch), int64(readFault)))
}

// tracedRun executes the fixed three-host home-based (HomeMod) workload with rec
// attached and returns the run's elapsed virtual time plus the rendered
// trace dump.
func tracedRun(t *testing.T, rec *trace.Recorder) (elapsed int64, dump string) {
	t.Helper()
	s, err := dsm.New("millipage", dsm.Options{Hosts: 3, SharedSize: 1 << 16, Views: 4, Seed: 9,
		HomeOf: dsm.HomeMod, Trace: rec})
	must(t, err)
	var vas [8]uint64
	err = s.Run(func(th *dsm.Thread) {
		if th.Host() == 0 {
			for i := range vas {
				vas[i] = th.Malloc(64)
				th.WriteU32(vas[i], uint32(i))
			}
		}
		th.Barrier()
		for r := 0; r < 2; r++ {
			for v := range vas {
				if (v+r)%3 == th.Host() {
					th.WriteU32(vas[v], th.ReadU32(vas[v])*7+uint32(r))
				}
			}
			th.Barrier()
			for v := range vas {
				_ = th.ReadU32(vas[v])
			}
			th.Barrier()
		}
	})
	must(t, err)
	var buf bytes.Buffer
	rec.Dump(&buf)
	return int64(s.Elapsed()), buf.String()
}

// TestGoldenTraceDigest drives a three-host home-based run with tracing on
// and hashes the rendered dump. The digest pins down both the protocol's
// virtual-time behaviour and the trace text itself.
func TestGoldenTraceDigest(t *testing.T) {
	rec := trace.NewRecorder(1 << 16)
	elapsed, dump := tracedRun(t, rec)
	pins.Check(t, "GoldenTraceDigest", traceDigest(rec, elapsed, dump))
}

// traceDigest is a traced run's pin: its recorded events, elapsed virtual
// time and the FNV-1a/64 digest of its dump.
func traceDigest(rec *trace.Recorder, elapsed int64, dump string) string {
	h := fnv.New64a()
	h.Write([]byte(dump))
	return fmt.Sprintf("total=%d elapsed=%d digest=%#x", rec.Total(), elapsed, h.Sum64())
}

// tracedLockRun is a traced run under any protocol that goes through the
// lock service as well as barriers: every host takes the lock of each
// variable it updates, so grants queue and pass between hosts, and under
// lrc-mw write notices ride the grants and releases and the next holder
// fetches the invalidated minipage from its home.
func tracedLockRun(t *testing.T, protocol string, hosts int, rec *trace.Recorder) (elapsed int64, dump string) {
	t.Helper()
	spec, _ := registry.Lookup(protocol)
	s, err := spec.New(registry.Options{Hosts: hosts, SharedSize: 1 << 16, Views: 4, Seed: 9, Trace: rec})
	must(t, err)
	var vas [6]uint64
	err = s.Run(func(th *dsm.Thread) {
		if th.Host() == 0 {
			for i := range vas {
				vas[i] = th.Malloc(64)
			}
		}
		th.Barrier()
		for r := 0; r < 3; r++ {
			for v := range vas {
				if (v+r)%hosts == th.Host() || v%2 == 0 {
					th.Lock(v)
					th.WriteU32(vas[v], th.ReadU32(vas[v])*7+uint32(r+th.Host()))
					th.Unlock(v)
				}
			}
			th.Barrier()
			_ = th.ReadU32(vas[r])
		}
		th.Barrier()
	})
	must(t, err)
	var buf bytes.Buffer
	rec.Dump(&buf)
	return int64(s.Elapsed()), buf.String()
}

// TestGoldenTraceDigestLocks pins the trace of tracedLockRun under lrc-mw
// and ivy at three hosts and lrc-mw and millipage at eight: the Handle and
// Send records of every message, in order, at their virtual times.
func TestGoldenTraceDigestLocks(t *testing.T) {
	for _, w := range []struct {
		protocol string
		hosts    int
	}{{"lrc-mw", 3}, {"ivy", 3}, {"lrc-mw", 8}, {"millipage", 8}} {
		rec := trace.NewRecorder(1 << 16)
		elapsed, dump := tracedLockRun(t, w.protocol, w.hosts, rec)
		pins.Check(t, fmt.Sprintf("GoldenTraceDigestLocks/%s/%d", w.protocol, w.hosts), traceDigest(rec, elapsed, dump))
	}
}

// TestTraceDoubleRunDeterminism runs the traced workload twice — the
// second time on the same recorder, recycled with Reset — and demands
// identical elapsed times and byte-identical dumps. A divergence means a
// pooled trace buffer or protocol scratch structure leaked state from the
// first run into the second.
func TestTraceDoubleRunDeterminism(t *testing.T) {
	rec := trace.NewRecorder(1 << 16)
	e1, d1 := tracedRun(t, rec)
	rec.Reset()
	e2, d2 := tracedRun(t, rec)
	if e1 != e2 {
		t.Errorf("elapsed diverged across runs: %d then %d", e1, e2)
	}
	if d1 != d2 {
		t.Errorf("trace dump diverged across runs (%d vs %d bytes)", len(d1), len(d2))
	}
}

// TestSweepParallelMatchesSequential forces the sweep helper through both
// its sequential and its multi-worker path over the same grid and
// requires identical results and identical progress bytes. GOMAXPROCS
// does not matter: parallel sweeps must only reorder wall-clock work. The
// worker width is an atomic knob the sweeps read while tests and the CLI
// write it, which is why the check script's full tier repeats this test
// under -race.
func TestSweepParallelMatchesSequential(t *testing.T) {
	saved := Workers()
	defer SetWorkers(saved)

	run := func(workers int) ([]Figure7Point, string) {
		SetWorkers(workers)
		var progress bytes.Buffer
		cfg := Figure7Config{Hosts: []int{2, 3}, Levels: []int{1, 2}, Scale: 0.05, Seed: 5, Repeats: 2}
		pts, err := Figure7(cfg, &progress)
		must(t, err)
		return pts, progress.String()
	}

	seqPts, seqOut := run(1)
	parPts, parOut := run(4)
	if len(seqPts) != len(parPts) {
		t.Fatalf("point counts differ: %d vs %d", len(seqPts), len(parPts))
	}
	for i := range seqPts {
		if seqPts[i] != parPts[i] {
			t.Errorf("point %d: sequential %+v, parallel %+v", i, seqPts[i], parPts[i])
		}
	}
	if seqOut != parOut {
		t.Errorf("progress output differs:\n--- sequential ---\n%s--- parallel ---\n%s", seqOut, parOut)
	}
}

// TestSweepErrorPropagates exercises the sweep helper's error path on the
// parallel branch: every job runs, the lowest-index error surfaces.
func TestSweepErrorPropagates(t *testing.T) {
	saved := Workers()
	defer SetWorkers(saved)
	SetWorkers(3)

	ran := make([]bool, 7)
	_, err := sweep(len(ran), func(i int) (int, error) {
		ran[i] = true
		if i == 2 || i == 5 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "job 2 failed" {
		t.Fatalf("err = %v, want job 2 failed", err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("job %d never ran", i)
		}
	}
}
