package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"millipage/internal/mcheck"
)

func runExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	protocol := fs.String("protocol", "millipage", "coherence protocol (millipage, ivy, lrc-mw)")
	workload := fs.String("workload", "drf", "litmus workload: "+strings.Join(mcheck.WorkloadNames(), ", "))
	faults := fs.String("faults", "", "fault preset ("+strings.Join(mcheck.FaultNames(), ", ")+"); empty = clean network")
	hosts := fs.Int("hosts", 0, "cluster size (0 = the workload's default)")
	seed := fs.Int64("seed", 1, "system seed: engine rng and fault plan")
	schedules := fs.Int("schedules", 200, "schedules to explore (schedule 0 is the default order)")
	exploreSeed := fs.Int64("exploreseed", 0, "seed for the schedule shuffle (0 = -seed)")
	shrinkRuns := fs.Int("shrinkruns", mcheck.DefaultShrinkRuns, "replay budget for the delta-debugging shrinker")
	keepGoing := fs.Bool("keepgoing", false, "keep exploring after the first failure")
	artifacts := fs.String("artifacts", "", "directory for shrunk repro traces (empty = don't write)")
	replay := fs.String("replay", "", "replay a saved .mchk trace instead of exploring")
	fs.Parse(args)

	if *replay != "" {
		return replayTrace(os.Stdout, *replay)
	}

	o := mcheck.Options{
		Protocol: *protocol, Workload: *workload, Faults: *faults,
		Hosts: *hosts, Seed: *seed,
		Schedules: *schedules, ExploreSeed: *exploreSeed,
		ShrinkRuns: *shrinkRuns, KeepGoing: *keepGoing, ArtifactDir: *artifacts,
	}
	if o.ExploreSeed == 0 {
		o.ExploreSeed = o.Seed
	}

	net := o.Faults
	if net == "" {
		net = "clean"
	}
	fmt.Printf("exploring %s/%s (%s network), seed %d, up to %d schedules ...\n",
		o.Protocol, o.Workload, net, o.Seed, o.Schedules)

	rep, err := mcheck.Explore(o)
	if err != nil {
		return err
	}

	var failures, decisions int
	maxDecisions := 0
	for _, s := range rep.Schedules {
		if s.Failure != nil {
			failures++
		}
		decisions += s.Decisions
		if s.Decisions > maxDecisions {
			maxDecisions = s.Decisions
		}
	}
	fmt.Printf("explored %d schedules (%d distinct), %d scheduling decisions (max %d per run)\n",
		len(rep.Schedules), rep.Distinct, decisions, maxDecisions)

	if rep.Failure == nil {
		fmt.Println("all schedules passed the SW/MR, consistency and agreement oracles")
		return nil
	}

	fr := rep.Failure
	fmt.Printf("\nFAILURE on schedule %d (%d failing of %d explored):\n  %s\n",
		fr.Schedule.Index, failures, len(rep.Schedules), fr.Schedule.Failure.Error())
	fmt.Printf("recorded trace: %d decisions, digest %016x\n", len(fr.Trace.Decisions), fr.Trace.Digest())
	if fr.Shrunk != nil {
		fmt.Printf("shrunk to %d decisions (digest %016x), failure replays as:\n  %s\n",
			len(fr.Shrunk.Decisions), fr.Shrunk.Digest(), fr.Shrunk.Failure)
	}
	if fr.ArtifactPath != "" {
		fmt.Printf("repro artifact: %s\n  (replay with: millipage explore -replay %s)\n",
			fr.ArtifactPath, fr.ArtifactPath)
	}
	return fmt.Errorf("schedule exploration found a failing schedule")
}

// replayTrace re-executes a saved decision trace twice and verifies the
// two runs are bit-identical (same fingerprint) and match the recorded
// failure, if any.
func replayTrace(out io.Writer, path string) error {
	tr, err := mcheck.LoadTrace(path)
	if err != nil {
		return err
	}
	net := tr.Faults
	if net == "" {
		net = "clean"
	}
	fmt.Fprintf(out, "replaying %s: %s/%s (%s network), seed %d, %d decisions, digest %016x\n",
		path, tr.Protocol, tr.Workload, net, tr.Seed, len(tr.Decisions), tr.Digest())

	first, err := mcheck.Replay(tr)
	if err != nil {
		return err
	}
	second, err := mcheck.Replay(tr)
	if err != nil {
		return err
	}
	if first.Fingerprint != second.Fingerprint {
		return fmt.Errorf("replay is not deterministic: fingerprints %q vs %q", first.Fingerprint, second.Fingerprint)
	}
	fmt.Fprintf(out, "replay fingerprint: %s (bit-identical across two runs)\n", first.Fingerprint)

	switch {
	case first.Failure == nil && tr.Failure == "":
		fmt.Fprintln(out, "schedule passes every oracle, as recorded")
	case first.Failure != nil && tr.Failure != "":
		fmt.Fprintf(out, "schedule reproduces the recorded failure:\n  %s\n", first.Failure.Error())
		if first.Failure.Error() != tr.Failure {
			fmt.Fprintf(out, "  (recorded message was: %s)\n", tr.Failure)
		}
	case first.Failure != nil:
		return fmt.Errorf("replay failed (%s) but the trace was recorded as passing", first.Failure.Error())
	default:
		return fmt.Errorf("replay passed but the trace records failure %q", tr.Failure)
	}
	return nil
}
