// Package mcheck is the schedule-exploration model checker: it drives
// the deterministic simulator through many distinct schedules per
// configuration by perturbing the pop order of same-timestamp calendar
// events (sim.Explorer), asserts the DESIGN.md §8 invariants from
// internal/check after every explored schedule, and when a schedule
// fails, delta-debugs the recorded decision trace down to a smallest-
// known failing schedule saved as a replayable repro artifact.
package mcheck

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"millipage/internal/dsm"
	"millipage/internal/faultnet"
	"millipage/internal/registry"
	"millipage/internal/sim"
)

// Watchdog bounds one explored schedule's virtual time: well past any
// retransmission backoff chain, far below forever. A run that has not
// finished by then is classified as a stall (livelock) failure.
const Watchdog = 120 * sim.Second

// Options configures one exploration campaign.
type Options struct {
	Protocol string // a registry name: "millipage", "ivy" or "lrc-mw"
	Workload string // a Workloads key: "swmr", "mp", "dekker", "drf", "merge", "drf-nolock"
	Faults   string // a fault preset name (FaultPresets), or "" for a clean network
	Hosts    int    // 0 = the workload's default
	Seed     int64  // system seed: engine rng and fault plan

	Schedules   int     // schedules to explore (schedule 0 is the default order)
	ExploreSeed int64   // seeds the per-schedule random strategies
	Preempt     float64 // probability of deferring a yielded process at a tie
	Budget      int     // max preemptions per schedule; 0 = unbounded

	ShrinkRuns  int    // replay budget for the shrinker; 0 = DefaultShrinkRuns
	KeepGoing   bool   // keep exploring after the first failure
	ArtifactDir string // where to write shrunk repro traces; "" = don't write

	// homeOf places every minipage's home; nil is the default. The tests
	// set dsm.HomeCentral to explore the paper's one manager.
	homeOf func(id, hosts int) int
}

// Failure is one way an explored schedule can go wrong.
type Failure struct {
	Kind string // "oracle", "deadlock", "panic", "stall", or "run-error"
	Msg  string
}

func (f *Failure) Error() string { return f.Kind + ": " + f.Msg }

// sameKind reports whether two failures count as the same bug for
// shrinking purposes. Message text may embed schedule-dependent
// values, so only the kind is compared.
func sameKind(a, b *Failure) bool { return a != nil && b != nil && a.Kind == b.Kind }

// ScheduleResult summarizes one explored schedule.
type ScheduleResult struct {
	Index       int
	Digest      uint64 // decision-sequence fingerprint; distinctness key
	Fingerprint string // run fingerprint: elapsed virtual time + transport counters
	Decisions   int
	Failure     *Failure // nil if every invariant held
}

// FailureReport is the exploration campaign's output for a failing
// schedule: the trace as recorded, its shrunk canonical form, and
// where the repro artifact was written.
type FailureReport struct {
	Schedule     ScheduleResult
	Trace        *Trace
	Shrunk       *Trace
	ShrunkResult *ScheduleResult
	ArtifactPath string
}

// Report is the result of Explore.
type Report struct {
	Options   Options
	Schedules []ScheduleResult
	Distinct  int // number of distinct decision digests among Schedules
	Failure   *FailureReport
}

// fingerprint reduces one finished run to a comparable value: elapsed
// virtual time plus every endpoint's full transport counters. Two runs
// with equal fingerprints took the same schedule through the protocol.
func fingerprint(rt *dsm.System) string {
	s := fmt.Sprintf("elapsed=%d", rt.Elapsed())
	for i := 0; i < rt.NumHosts(); i++ {
		s += fmt.Sprintf(";%+v", rt.Net.Endpoint(i).Stats())
	}
	return s
}

// runOne executes one schedule of the configured (protocol, workload,
// faults, seed) under explorer x and classifies the outcome. Every
// call builds a fresh system: schedules never share state.
func (o *Options) runOne(x sim.Explorer) (string, *Failure, error) {
	proto, err := registry.Lookup(o.Protocol)
	if err != nil {
		return "", nil, fmt.Errorf("mcheck: %w", err)
	}
	wl, err := buildWorkload(o, proto.SC)
	if err != nil {
		return "", nil, err
	}
	var plan *faultnet.Plan
	if o.Faults != "" {
		if plan, err = FaultPlan(o.Faults, wl.hosts, o.Seed); err != nil {
			return "", nil, err
		}
	}
	sys, err := proto.New(registry.Options{Hosts: wl.hosts, SharedSize: 1 << 16, Views: 8, Seed: o.Seed, HomeOf: o.homeOf, Faults: plan})
	if err != nil {
		return "", nil, err
	}
	sys.Eng.SetExplorer(x)
	sys.Eng.At(sim.Time(Watchdog), sys.Eng.Stop)
	runErr := sys.Run(func(w *dsm.Thread) { wl.body(sys, w) })
	fp := fingerprint(sys)
	switch {
	case runErr != nil:
		var pe *sim.ErrPanic
		var de *sim.ErrDeadlock
		var se dsm.ErrStopped
		switch {
		case errors.As(runErr, &pe):
			return fp, &Failure{Kind: "panic", Msg: runErr.Error()}, nil
		case errors.As(runErr, &de):
			return fp, &Failure{Kind: "deadlock", Msg: runErr.Error()}, nil
		case errors.As(runErr, &se):
			return fp, &Failure{Kind: "stall", Msg: fmt.Sprintf("%v watchdog: %v", sim.Duration(Watchdog), runErr)}, nil
		default:
			return fp, &Failure{Kind: "run-error", Msg: runErr.Error()}, nil
		}
	case wl.err() != nil:
		return fp, &Failure{Kind: "oracle", Msg: wl.err().Error()}, nil
	case wl.moves && sys.MWStats().Migrations == 0:
		return fp, &Failure{Kind: "oracle", Msg: "no home moved"}, nil
	case wl.excl && proto.SC && sys.Totals().ExclusiveReads == 0:
		return fp, &Failure{Kind: "oracle", Msg: "no read under a lock was served exclusive"}, nil
	}
	return fp, nil, nil
}

// Explore runs the campaign: Schedules distinct-seeded schedules of
// one configuration, invariants checked after each. Schedule 0 is the
// unperturbed default order; the rest use the Random strategy. On the
// first failing schedule the decision trace is shrunk and (if
// ArtifactDir is set) written as a repro artifact; exploration then
// stops unless KeepGoing is set.
func Explore(o Options) (*Report, error) {
	if o.Schedules <= 0 {
		o.Schedules = 1
	}
	rep := &Report{Options: o}
	digests := make(map[uint64]struct{})
	for i := 0; i < o.Schedules; i++ {
		var strat sim.Explorer
		if i == 0 {
			strat = &Replayer{} // no decisions: the default schedule
		} else {
			strat = NewRandom(o.ExploreSeed+int64(i)*0x9E3779B9, o.Preempt, o.Budget)
		}
		rec := &Recorder{Inner: strat}
		fp, fail, err := o.runOne(rec)
		if err != nil {
			return rep, err
		}
		tr := &Trace{
			Protocol: o.Protocol, Workload: o.Workload, Faults: o.Faults,
			Hosts: o.Hosts, Seed: o.Seed, Decisions: rec.Decisions,
		}
		res := ScheduleResult{
			Index: i, Digest: tr.Digest(), Fingerprint: fp,
			Decisions: len(rec.Decisions), Failure: fail,
		}
		digests[res.Digest] = struct{}{}
		rep.Schedules = append(rep.Schedules, res)
		if fail != nil && rep.Failure == nil {
			tr.Failure = fail.Error()
			fr := &FailureReport{Schedule: res, Trace: tr}
			shrunk, sres, err := o.Shrink(tr, fail)
			if err == nil {
				fr.Shrunk, fr.ShrunkResult = shrunk, sres
			}
			if o.ArtifactDir != "" {
				art := fr.Shrunk
				if art == nil {
					art = tr
				}
				path := filepath.Join(o.ArtifactDir, fmt.Sprintf("%s-%s-seed%d-%016x.mchk", o.Protocol, o.Workload, o.Seed, res.Digest))
				if err := os.MkdirAll(o.ArtifactDir, 0o755); err == nil {
					if err := art.Save(path); err == nil {
						fr.ArtifactPath = path
					}
				}
			}
			rep.Failure = fr
			if !o.KeepGoing {
				break
			}
		}
	}
	rep.Distinct = len(digests)
	return rep, nil
}

// Replay re-executes a saved trace strictly: every recorded decision
// must line up with the run's actual tie structure. The returned
// result carries the run fingerprint, which is bit-identical across
// replays of the same trace.
func Replay(t *Trace) (*ScheduleResult, error) {
	o := Options{Protocol: t.Protocol, Workload: t.Workload, Faults: t.Faults, Hosts: t.Hosts, Seed: t.Seed}
	r := &Replayer{Decisions: t.Decisions, Strict: true}
	fp, fail, err := o.runOne(r)
	if err != nil {
		return nil, err
	}
	if r.Diverged() {
		return nil, fmt.Errorf("mcheck: trace does not correspond to this configuration (decision %d diverged)", r.Consumed())
	}
	return &ScheduleResult{Digest: t.Digest(), Fingerprint: fp, Decisions: len(t.Decisions), Failure: fail}, nil
}
