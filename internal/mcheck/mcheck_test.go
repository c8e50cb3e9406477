package mcheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"millipage/internal/sim"
)

// TestTraceRoundTrip pins the MCHK1 artifact format.
func TestTraceRoundTrip(t *testing.T) {
	tr := &Trace{
		Protocol: "millipage", Workload: "drf", Faults: "drop-heavy",
		Hosts: 3, Seed: -7,
		Decisions: []Decision{{N: 4, Pick: 2}, {N: 2, Pick: 0}, {N: 3, Pick: 1}},
		Failure:   "oracle: host 1: accumulator = 11, want 12",
	}
	got, err := UnmarshalTrace(tr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Protocol != tr.Protocol || got.Workload != tr.Workload || got.Faults != tr.Faults ||
		got.Hosts != tr.Hosts || got.Seed != tr.Seed || got.Failure != tr.Failure ||
		len(got.Decisions) != len(tr.Decisions) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, tr)
	}
	for i := range tr.Decisions {
		if got.Decisions[i] != tr.Decisions[i] {
			t.Fatalf("decision %d: %v vs %v", i, got.Decisions[i], tr.Decisions[i])
		}
	}
	if got.Digest() != tr.Digest() {
		t.Fatal("digest changed across round trip")
	}

	// Save/Load through a file.
	path := filepath.Join(t.TempDir(), "t.mchk")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrace(path); err != nil {
		t.Fatal(err)
	}

	// Corruption is detected.
	bad := tr.Marshal()
	bad[len(bad)/2] ^= 0xff
	if _, err := UnmarshalTrace(bad); err == nil {
		t.Fatal("corrupt trace accepted")
	}
	if _, err := UnmarshalTrace([]byte("not a trace")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestExploreDistinctSchedules is the campaign guarantee the CI smoke
// relies on: >= 100 distinct schedules per (protocol, workload, seed).
func TestExploreDistinctSchedules(t *testing.T) {
	for _, proto := range []string{"millipage", "ivy"} {
		t.Run(proto, func(t *testing.T) {
			rep, err := Explore(Options{
				Protocol: proto, Workload: "drf", Seed: 1,
				Schedules: 110, ExploreSeed: 42, Preempt: 0.25, Budget: 40,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failure != nil {
				t.Fatalf("schedule %d failed: %v (digest %016x)",
					rep.Failure.Schedule.Index, rep.Failure.Schedule.Failure, rep.Failure.Schedule.Digest)
			}
			if rep.Distinct < 100 {
				t.Fatalf("only %d distinct schedules out of %d explored", rep.Distinct, len(rep.Schedules))
			}
		})
	}
}

// TestExploreFailoverSchedules is the replicated-management campaign
// guarantee: under the manager-kill preset — the hot shard's primary
// crashed in the middle of the lock-guarded increment burst — at least
// 100 distinct schedules must pass the exactly-once oracle, with no
// stall until the dead host's restart (a stall past the watchdog is a
// failure classification of its own).
func TestExploreFailoverSchedules(t *testing.T) {
	rep, err := Explore(Options{
		Protocol: "millipage-repl", Workload: "failover", Faults: "manager-kill",
		Seed: 3, Schedules: 110, ExploreSeed: 21, Preempt: 0.25, Budget: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("schedule %d failed: %v (digest %016x)",
			rep.Failure.Schedule.Index, rep.Failure.Schedule.Failure, rep.Failure.Schedule.Digest)
	}
	if rep.Distinct < 100 {
		t.Fatalf("only %d distinct schedules out of %d explored", rep.Distinct, len(rep.Schedules))
	}
	// The litmus refuses to run where replication is off: the workload
	// would silently test nothing.
	if _, err := Explore(Options{Protocol: "millipage", Workload: "failover", Schedules: 1}); err == nil {
		t.Fatal("failover workload accepted without replicated management")
	}
}

// TestFailoverRegressionTrace replays the checked-in failover schedule:
// a seeded manager-kill interleaving recorded while fixing the
// dedup-table rebuild bug (a promoted backup redoing a completed
// transaction). The artifact must load, replay bit-identically twice,
// and pass — forever.
//
// Regenerate after an intentional protocol timing change with:
//
//	MCHECK_REGEN=1 go test ./internal/mcheck -run TestFailoverRegressionTrace
func TestFailoverRegressionTrace(t *testing.T) {
	const path = "testdata/failover-manager-kill.mchk"
	o := Options{
		Protocol: "millipage-repl", Workload: "failover", Faults: "manager-kill",
		Seed: 3, ExploreSeed: 21, Preempt: 0.25, Budget: 40,
	}
	if os.Getenv("MCHECK_REGEN") != "" {
		rec := &Recorder{Inner: NewRandom(o.ExploreSeed+7*0x9E3779B9, o.Preempt, o.Budget)}
		_, fail, err := o.runOne(rec)
		if err != nil {
			t.Fatal(err)
		}
		if fail != nil {
			t.Fatalf("regeneration schedule failed: %v", fail)
		}
		tr := &Trace{
			Protocol: o.Protocol, Workload: o.Workload, Faults: o.Faults,
			Hosts: o.Hosts, Seed: o.Seed, Decisions: rec.Decisions,
		}
		if err := tr.Save(path); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s: %d decisions, digest %016x", path, len(tr.Decisions), tr.Digest())
	}
	art, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Protocol != "millipage-repl" || art.Workload != "failover" || art.Faults != "manager-kill" {
		t.Fatalf("artifact drifted: %s/%s/%s", art.Protocol, art.Workload, art.Faults)
	}
	r1, err := Replay(art)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Replay(art)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Failure != nil || r2.Failure != nil {
		t.Fatalf("regression trace fails again: %v / %v", r1.Failure, r2.Failure)
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatalf("replay is not deterministic:\n r1: %s\n r2: %s", r1.Fingerprint, r2.Fingerprint)
	}
	if r1.Digest != art.Digest() {
		t.Fatal("replay digest diverged from the artifact")
	}
}

// TestExploreLRCDRF: the DRF workload explores under lazy release
// consistency too, named by the "lrc" alias of lrc-mw, and SC-dependent
// workloads are refused.
func TestExploreLRCDRF(t *testing.T) {
	rep, err := Explore(Options{Protocol: "lrc", Workload: "drf", Seed: 1, Schedules: 25, ExploreSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("lrc drf failed: %v", rep.Failure.Schedule.Failure)
	}
	if rep.Distinct < 20 {
		t.Fatalf("only %d distinct schedules", rep.Distinct)
	}
	if _, err := Explore(Options{Protocol: "lrc", Workload: "dekker", Seed: 1, Schedules: 1}); err == nil {
		t.Fatal("lrc accepted an SC litmus workload")
	}
}

// TestExploreWithFaults composes exploration with every fault preset.
func TestExploreWithFaults(t *testing.T) {
	for _, preset := range FaultNames() {
		t.Run(preset, func(t *testing.T) {
			rep, err := Explore(Options{
				Protocol: "millipage", Workload: "drf", Faults: preset,
				Seed: 3, Schedules: 8, ExploreSeed: 11, Preempt: 0.1, Budget: 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failure != nil {
				t.Fatalf("schedule %d under %s failed: %v",
					rep.Failure.Schedule.Index, preset, rep.Failure.Schedule.Failure)
			}
		})
	}
}

// TestReplayBitIdentical: a recorded schedule replays to the same run
// fingerprint (elapsed virtual time + full transport counters) across
// two independent replays, including through a save/load cycle.
func TestReplayBitIdentical(t *testing.T) {
	o := Options{Protocol: "millipage", Workload: "drf", Seed: 5, Schedules: 4, ExploreSeed: 99, Preempt: 0.2, Budget: 30}
	rep, err := Explore(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("exploration failed: %v", rep.Failure.Schedule.Failure)
	}
	// Re-record schedule 3 to get its trace (Explore keeps digests only
	// for passing schedules), by replaying the same strategy seed.
	rec := &Recorder{Inner: NewRandom(o.ExploreSeed+3*0x9E3779B9, o.Preempt, o.Budget)}
	fp0, fail, err := o.runOne(rec)
	if err != nil || fail != nil {
		t.Fatal(err, fail)
	}
	tr := &Trace{Protocol: o.Protocol, Workload: o.Workload, Hosts: o.Hosts, Seed: o.Seed, Decisions: rec.Decisions}
	if tr.Digest() != rep.Schedules[3].Digest || fp0 != rep.Schedules[3].Fingerprint {
		t.Fatal("re-recorded schedule does not match the explored one")
	}

	path := filepath.Join(t.TempDir(), "sched3.mchk")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Replay(loaded)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Replay(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint != fp0 || r2.Fingerprint != fp0 {
		t.Fatalf("replay fingerprints diverged:\n rec: %s\n r1:  %s\n r2:  %s", fp0, r1.Fingerprint, r2.Fingerprint)
	}
	if r1.Digest != tr.Digest() || r2.Digest != r1.Digest {
		t.Fatal("replay digests diverged")
	}
}

// TestInjectedBugCaughtShrunkReplayed is the end-to-end acceptance
// criterion: the drf-nolock mutation (lock elided around the
// accumulator read-modify-write) must be caught by exploration, its
// failing schedule must shrink to a repro artifact, and the artifact
// must replay to the same failure.
func TestInjectedBugCaughtShrunkReplayed(t *testing.T) {
	dir := t.TempDir()
	rep, err := Explore(Options{
		Protocol: "millipage", Workload: "drf-nolock", Seed: 1,
		Schedules: 60, ExploreSeed: 1, Preempt: 0.3, Budget: 50,
		ArtifactDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure == nil {
		t.Fatalf("injected lost-update bug survived %d explored schedules", len(rep.Schedules))
	}
	fr := rep.Failure
	if fr.Schedule.Failure.Kind != "oracle" || !strings.Contains(fr.Schedule.Failure.Msg, "accumulator") {
		t.Fatalf("unexpected failure: %v", fr.Schedule.Failure)
	}
	if fr.Shrunk == nil {
		t.Fatal("failing schedule did not shrink")
	}
	if got, orig := len(fr.Shrunk.Decisions), len(fr.Trace.Decisions); got > orig {
		t.Fatalf("shrunk trace grew: %d > %d decisions", got, orig)
	}
	if fr.ArtifactPath == "" {
		t.Fatal("no repro artifact written")
	}

	// The artifact replays to the same failure, twice.
	art, err := LoadTrace(fr.ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := Replay(art)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failure == nil || res.Failure.Kind != "oracle" {
			t.Fatalf("replay %d of artifact: failure = %v, want the oracle violation", i, res.Failure)
		}
		if res.Failure.Error() != art.Failure {
			t.Fatalf("replayed failure %q, artifact recorded %q", res.Failure.Error(), art.Failure)
		}
		if res.Fingerprint != fr.ShrunkResult.Fingerprint {
			t.Fatalf("replay %d fingerprint diverged from shrink-time replay", i)
		}
	}

	// 1-minimality: zeroing any single remaining non-default decision
	// loses the failure (the shrinker's guarantee, verified directly).
	var nonzero []int
	for i, d := range fr.Shrunk.Decisions {
		if d.Pick != 0 {
			nonzero = append(nonzero, i)
		}
	}
	o := Options{Protocol: fr.Shrunk.Protocol, Workload: fr.Shrunk.Workload, Hosts: fr.Shrunk.Hosts, Seed: fr.Shrunk.Seed}
	for _, i := range nonzero {
		dec := make([]Decision, len(fr.Shrunk.Decisions))
		copy(dec, fr.Shrunk.Decisions)
		dec[i].Pick = 0
		_, f, err := o.runOne(&Replayer{Decisions: dec})
		if err != nil {
			t.Fatal(err)
		}
		if f != nil && f.Kind == "oracle" {
			t.Fatalf("shrunk trace is not 1-minimal: zeroing decision %d still fails", i)
		}
	}
}

// TestReplayerDivergence exercises the Replayer clamping contract: an
// out-of-range pick clamps into range and marks divergence, and an
// exhausted replayer answers the default order.
func TestReplayerDivergence(t *testing.T) {
	r := &Replayer{Decisions: []Decision{{N: 3, Pick: 5}}}
	ties := make([]sim.EventInfo, 2)
	if k := r.ChooseTie(ties); k != 1 || !r.Diverged() {
		t.Fatalf("clamped pick = %d, diverged = %v", k, r.Diverged())
	}
	if k := r.ChooseTie(ties); k != 0 {
		t.Fatalf("exhausted replayer picked %d, want 0", k)
	}
	if r.Consumed() != 1 {
		t.Fatalf("Consumed = %d", r.Consumed())
	}
}
