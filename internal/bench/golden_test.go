package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"millipage/internal/apps"
	"millipage/internal/cluster"
	"millipage/internal/dsm"
	"millipage/internal/registry"
	"millipage/internal/trace"
)

// The constants below are virtual-time digests captured from the
// pre-optimization simulator (container/heap calendar, eager tracing,
// allocating message path, sequential sweeps). The hot-path rework —
// typed calendar, Sleep fast path, pooled envelopes, lazy trace
// rendering, parallel sweeps — is required to be a pure wall-clock
// optimization: every simulated result must stay bit-identical. A
// failure here means an optimization changed simulation semantics, not
// just speed. The single-home (central) values were re-recorded once, on
// purpose, when the MPT lookup moved from host 0 to each requester; the
// home-based ones (and SOR, WATER and the millipage trace digests, which
// run the default placement) when HomeMod became the default and the
// allocation authority stopped sending DIR_INITs. WATER's checksum moved
// in its last digit with the order its force updates take their locks.
// The manager-load and millipage trace digests moved again when a
// minipage's readers began to share one read transaction at the home,
// and with SOR and WATER when invalidation replies began to go to the
// writer instead of the home. All of them moved when a host's messages to
// itself stopped crossing the wire and a home holding a copy began to
// source reads from it.

func TestGoldenManagerLoad(t *testing.T) {
	cfg := ManagerLoadConfig{Hosts: 4, Vars: 16, Rounds: 3, Seed: 21}
	want := []struct {
		m        string
		homeOf   func(id, hosts int) int
		elapsed  int64
		pershard string
	}{
		{"central", cluster.HomeCentral, 12926705, "[200 0 0 0]"},
		{"home-based", cluster.HomeMod, 12848271, "[44 52 52 52]"},
	}
	const wantChecksum = uint64(0xc91651f70709a3a9)
	for _, w := range want {
		r, err := ManagerLoad(cfg, w.homeOf)
		if err != nil {
			t.Fatal(err)
		}
		if int64(r.Elapsed) != w.elapsed {
			t.Errorf("%v elapsed = %d, want %d", w.m, int64(r.Elapsed), w.elapsed)
		}
		if r.Checksum != wantChecksum {
			t.Errorf("%v checksum = %#x, want %#x", w.m, r.Checksum, wantChecksum)
		}
		if got := fmt.Sprint(r.PerShard); got != w.pershard {
			t.Errorf("%v pershard = %s, want %s", w.m, got, w.pershard)
		}
	}
}

func TestGoldenSOR(t *testing.T) {
	r, err := apps.RunSOR(apps.Params{Hosts: 4, Scale: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if int64(r.Timed) != 49865899 {
		t.Errorf("timed = %d, want 49865899", int64(r.Timed))
	}
	if got := fmt.Sprint(r.Check); got != "64" {
		t.Errorf("check = %s, want 64", got)
	}
	if r.Report.ReadFaults != 72 || r.Report.WriteFaults != 1286 {
		t.Errorf("faults = %d/%d, want 72/1286", r.Report.ReadFaults, r.Report.WriteFaults)
	}
}

func TestGoldenWATER(t *testing.T) {
	r, err := apps.RunWATER(apps.Params{Hosts: 4, Scale: 0.05, Seed: 3, ChunkLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if int64(r.Timed) != 61047042 {
		t.Errorf("timed = %d, want 61047042", int64(r.Timed))
	}
	if got := fmt.Sprint(r.Check); got != "0.017882280184443315" {
		t.Errorf("check = %s, want 0.017882280184443315", got)
	}
}

// tracedRun executes the fixed three-host home-based (HomeMod) workload with rec
// attached and returns the run's elapsed virtual time plus the rendered
// trace dump.
func tracedRun(t *testing.T, rec *trace.Recorder) (elapsed int64, dump string) {
	t.Helper()
	s, err := dsm.New(dsm.Options{Hosts: 3, SharedSize: 1 << 16, Views: 4, Seed: 9,
		HomeOf: cluster.HomeMod, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	var vas [8]uint64
	err = s.Run(func(th cluster.AppThread) {
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
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec.Dump(&buf)
	return int64(s.Elapsed()), buf.String()
}

// TestGoldenTraceDigest drives a three-host home-based run with tracing on
// and hashes the rendered dump. The digest pins down both the protocol's
// virtual-time behaviour and the trace text itself, so it proves the lazy
// renderer reproduces the historical eager format byte for byte.
func TestGoldenTraceDigest(t *testing.T) {
	rec := trace.NewRecorder(1 << 16)
	elapsed, dump := tracedRun(t, rec)
	if rec.Total() != 605 {
		t.Errorf("trace total = %d, want 605", rec.Total())
	}
	if elapsed != 4665864 {
		t.Errorf("elapsed = %d, want 4665864", elapsed)
	}
	h := fnv.New64a()
	h.Write([]byte(dump))
	if got := h.Sum64(); got != 0x86d529b199ebe9d1 {
		t.Errorf("trace dump digest = %#x, want 0x86d529b199ebe9d1", got)
	}
}

// tracedLockRun is a traced run under any protocol that goes through the
// lock service as well as barriers: every host takes the lock of each
// variable it updates, so grants queue and pass between hosts, and under
// lrc-mw write notices ride the grants and releases and the next holder
// fetches the invalidated minipage from its home.
func tracedLockRun(t *testing.T, protocol string, hosts int, rec *trace.Recorder) (elapsed int64, dump string) {
	t.Helper()
	s, err := registry.New(protocol, registry.Options{Hosts: hosts, SharedSize: 1 << 16, Views: 4, Seed: 9, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	var vas [6]uint64
	err = s.Run(func(th cluster.AppThread) {
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
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec.Dump(&buf)
	return int64(s.Runtime().Elapsed()), buf.String()
}

// TestGoldenTraceDigestLocks pins the trace of tracedLockRun under lrc-mw
// and ivy at three hosts, recorded before the lock service's messages and
// the protocols' reply headers were handled in engine context, ivy's again
// when it became millipage's page-grain preset: the Handle and Send
// records of every message, in order, at their virtual times. The 8-host
// rows were recorded before barriers combined up a tree: at 8 hosts the
// tree is the star, and its arrivals, now handled in engine context, send
// their releases at the same times. Both lrc-mw rows were re-recorded
// when its faults stopped fetching diffs from their writers and became
// one fetch from the home, and again when its homes moved from the
// allocating host to HomeOf's; the millipage row when its requests began to
// leave their requesters translated, and again when its directory became
// home-based by default. The ivy and millipage rows were re-recorded when a
// minipage's readers began to share one read transaction at the home, and
// when invalidation replies began to go to the writer. All four moved when
// a host's messages to itself stopped crossing the wire (lrc-mw's through
// host 0's own lock and barrier traffic) and a home began to source reads
// from its own copy. The lrc-mw rows were re-recorded when a home's own
// writes stopped taking twins and diffs and a release stopped waiting for
// its diffs to be acked (MW_DIFF_ACK went). The ivy and millipage rows were
// re-recorded when a read under a lock began to be served exclusive, and
// the lrc-mw rows when its fetch became a READ_REQUEST answered by
// READ_REPLY and DATA, whose install is charged (the MW_FETCH rows went).
func TestGoldenTraceDigestLocks(t *testing.T) {
	for _, w := range []struct {
		protocol string
		hosts    int
		total    uint64
		elapsed  int64
		digest   uint64
	}{
		{"lrc-mw", 3, 508, 5102110, 0x67836d52e57e4872},
		{"ivy", 3, 663, 9003712, 0xa6a8bad1cc35102d},
		{"lrc-mw", 8, 1386, 10312640, 0x99c42e087ee2bf0e},
		{"millipage", 8, 2060, 14826764, 0x35a5ecf0efc88209},
	} {
		rec := trace.NewRecorder(1 << 16)
		elapsed, dump := tracedLockRun(t, w.protocol, w.hosts, rec)
		h := fnv.New64a()
		h.Write([]byte(dump))
		if rec.Total() != w.total || elapsed != w.elapsed || h.Sum64() != w.digest {
			t.Errorf("%s/%d: trace total %d, elapsed %d, digest %#x; recorded %d, %d, %#x",
				w.protocol, w.hosts, rec.Total(), elapsed, h.Sum64(), w.total, w.elapsed, w.digest)
		}
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
// does not matter: parallel sweeps must only reorder wall-clock work.
func TestSweepParallelMatchesSequential(t *testing.T) {
	saved := Workers()
	defer SetWorkers(saved)

	run := func(workers int) ([]Figure7Point, string) {
		SetWorkers(workers)
		var progress bytes.Buffer
		cfg := Figure7Config{Hosts: []int{2, 3}, Levels: []int{1, 2}, Scale: 0.05, Seed: 5, Repeats: 2}
		pts, err := Figure7(cfg, &progress)
		if err != nil {
			t.Fatal(err)
		}
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
