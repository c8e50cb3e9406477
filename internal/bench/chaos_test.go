package bench

import (
	"bytes"
	"strings"
	"testing"

	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// TestChaosAllProtocols runs the chaos bench under every protocol with a
// hostile plan — losses, duplicates, reordering, a partition window and
// a host crash at once — and requires the oracle to hold: faults change
// timing, never application results.
func TestChaosAllProtocols(t *testing.T) {
	for _, proto := range []string{"millipage", "ivy", "lrc-mw"} {
		cfg := DefaultChaos()
		cfg.Protocol = proto
		cfg.Plan.Partitions = []faultnet.Partition{{
			A: 0b0011, B: 0b1100,
			From: sim.Time(2 * sim.Millisecond), Until: sim.Time(10 * sim.Millisecond),
		}}
		cfg.Plan.Crashes = []faultnet.Crash{{
			Host: cfg.Hosts - 1,
			At:   sim.Time(15 * sim.Millisecond), RestartAt: sim.Time(22 * sim.Millisecond),
		}}
		var buf bytes.Buffer
		if err := Chaos(&buf, cfg); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		out := buf.String()
		if !strings.Contains(out, "oracle: OK") {
			t.Errorf("%s: output missing oracle line:\n%s", proto, out)
		}
		if !strings.Contains(out, "retransmits=") {
			t.Errorf("%s: output missing reliability line:\n%s", proto, out)
		}
	}
}

// TestChaosCleanPlanStaysClean runs the chaos bench with an all-zero
// plan: the transport must stay on the clean path, with zero reliability
// activity reported.
func TestChaosCleanPlanStaysClean(t *testing.T) {
	cfg := DefaultChaos()
	cfg.Plan = faultnet.Plan{}
	var buf bytes.Buffer
	must(t, Chaos(&buf, cfg))
	if !strings.Contains(buf.String(), "reliability: retransmits=0 dups=0 ooo=0 dropped=0") {
		t.Errorf("clean plan produced reliability activity:\n%s", buf.String())
	}
}

// TestFigure6SweepIvyLrc pushes the parallel replica sweep through the
// ivy and lrc-mw protocol paths: the grid must produce identical points and
// identical progress bytes whether it runs sequentially or Workers-wide.
func TestFigure6SweepIvyLrc(t *testing.T) {
	saved := Workers()
	defer SetWorkers(saved)

	for _, proto := range []string{"ivy", "lrc-mw"} {
		run := func(workers int) ([]AppRun, string) {
			SetWorkers(workers)
			var progress bytes.Buffer
			cfg := Figure6Config{Protocol: proto, Hosts: []int{1, 2}, Scale: 0.05, Seed: 3, Only: "SOR"}
			runs, err := Figure6(cfg, &progress)
			if err != nil {
				t.Fatalf("%s: %v", proto, err)
			}
			return runs, progress.String()
		}
		seqRuns, seqOut := run(1)
		parRuns, parOut := run(4)
		if len(seqRuns) != len(parRuns) {
			t.Fatalf("%s: run counts differ: %d vs %d", proto, len(seqRuns), len(parRuns))
		}
		for i := range seqRuns {
			if seqRuns[i].Timed != parRuns[i].Timed || seqRuns[i].Speedup != parRuns[i].Speedup {
				t.Errorf("%s run %d: sequential %v/%v, parallel %v/%v", proto, i,
					seqRuns[i].Timed, seqRuns[i].Speedup, parRuns[i].Timed, parRuns[i].Speedup)
			}
		}
		if seqOut != parOut {
			t.Errorf("%s: progress output differs:\n--- sequential ---\n%s--- parallel ---\n%s",
				proto, seqOut, parOut)
		}
	}
}

// TestManagerLoadSweepParallelDeterminism runs the managerload
// comparison (which sweeps its two management modes Workers-wide)
// sequentially and in parallel: the rendered comparison must be
// byte-identical.
func TestManagerLoadSweepParallelDeterminism(t *testing.T) {
	saved := Workers()
	defer SetWorkers(saved)

	cfg := ManagerLoadConfig{Hosts: 4, Vars: 16, Rounds: 2, Seed: 5}
	run := func(workers int) string {
		SetWorkers(workers)
		var buf bytes.Buffer
		must(t, ManagerLoadCompare(&buf, cfg))
		return buf.String()
	}
	if seq, par := run(1), run(2); seq != par {
		t.Errorf("comparison output differs:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
}
