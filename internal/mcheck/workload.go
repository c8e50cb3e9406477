package mcheck

import (
	"fmt"
	"sort"

	"millipage/internal/check"
	"millipage/internal/dsm"
)

// workloadRun is one built workload instance: the portable body every
// thread executes, and the oracle to consult after the run.
type workloadRun struct {
	hosts int
	body  func(sys *dsm.System, w check.AppThread)
	err   func() error
	moves bool // the run must move a home: a schedule that moves none fails
	excl  bool // under SC the run must serve a read under a lock exclusive: a schedule that serves none fails
}

// workloadSpec names a workload and its constraints.
type workloadSpec struct {
	defaultHosts int
	fixedHosts   bool // body shape requires exactly defaultHosts
	sc           bool // requires sequential consistency (not runnable under lrc-mw)
	build        func(hosts int, seed int64) workloadRun
}

var workloads = map[string]workloadSpec{
	// swmr: seed-dependent read/write mix with the SW/MR page-table
	// invariant asserted after every operation.
	"swmr": {defaultHosts: 4, sc: true, build: func(hosts int, seed int64) workloadRun {
		wl := &check.SWMRSweep{Words: 4, Iters: 12, Seed: uint64(seed)}
		return workloadRun{
			hosts: hosts,
			body: func(sys *dsm.System, w check.AppThread) {
				if wl.Prots == nil {
					wl.Prots = sys
				}
				wl.Body(w)
			},
			err: wl.Err,
		}
	}},
	// mp: the message-passing litmus (observed flag implies observed
	// data), with one background-traffic host.
	"mp": {defaultHosts: 3, sc: true, build: func(hosts int, seed int64) workloadRun {
		wl := &check.MessagePassing{}
		return workloadRun{hosts: hosts, body: func(sys *dsm.System, w check.AppThread) { wl.Body(w) }, err: wl.Err}
	}},
	// dekker: the store-buffering litmus; exactly two hosts.
	"dekker": {defaultHosts: 2, fixedHosts: true, sc: true, build: func(hosts int, seed int64) workloadRun {
		wl := &check.Dekker{}
		return workloadRun{hosts: hosts, body: func(sys *dsm.System, w check.AppThread) { wl.Body(w) }, err: wl.Err}
	}},
	// drf: the barrier/lock-structured agreement program; runnable
	// under every protocol, LRC included. Under SC a run whose locked
	// read-modify-writes served no read exclusive fails: its turns at the
	// lock make one in every schedule.
	"drf": {defaultHosts: 3, build: func(hosts int, seed int64) workloadRun {
		wl := &check.DRF{Hosts: hosts, Rounds: 2, LockReps: 2, Turns: 1}
		return workloadRun{hosts: hosts, body: func(sys *dsm.System, w check.AppThread) { wl.Body(w) }, err: wl.Err, excl: true}
	}},
	// merge: the multiple-writer agreement program — every host writes
	// its own word of one shared minipage each round. DRF, so runnable
	// under every protocol; under lrc-mw it exercises twin/diff merging
	// of concurrent intervals directly.
	"merge": {defaultHosts: 3, build: func(hosts int, seed int64) workloadRun {
		wl := &check.ConcurrentMerge{Hosts: hosts, Rounds: 2}
		return workloadRun{hosts: hosts, body: func(sys *dsm.System, w check.AppThread) { wl.Body(w) }, err: wl.Err}
	}},
	// home-move: one host writes a minipage alone for two epochs, which
	// moves its home there under every protocol; then every host writes its
	// own word of it and adds to a shared one under a lock. A run that moves
	// no home fails, so the workload cannot stop covering a move unnoticed.
	"home-move": {defaultHosts: 3, build: func(hosts int, seed int64) workloadRun {
		wl := &check.HomeMove{Hosts: hosts}
		return workloadRun{hosts: hosts, body: func(sys *dsm.System, w check.AppThread) { wl.Body(w) }, err: wl.Err, moves: true}
	}},
	// drf-nolock: the intentionally injected bug — the accumulator
	// update races because the lock is skipped. Exploration must catch
	// the lost update; used by self-tests and demos, never by CI gates
	// that expect success.
	"drf-nolock": {defaultHosts: 3, build: func(hosts int, seed int64) workloadRun {
		wl := &check.DRF{Hosts: hosts, Rounds: 1, LockReps: 2, SkipLock: true}
		return workloadRun{hosts: hosts, body: func(sys *dsm.System, w check.AppThread) { wl.Body(w) }, err: wl.Err}
	}},
}

// WorkloadNames lists the available workloads, sorted.
func WorkloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads { //detlint:ok sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// buildWorkload resolves o.Workload (and a zero o.Hosts) into a fresh
// workload instance for one run. sc reports whether o.Protocol is
// sequentially consistent.
func buildWorkload(o *Options, sc bool) (workloadRun, error) {
	spec, ok := workloads[o.Workload]
	if !ok {
		return workloadRun{}, fmt.Errorf("mcheck: unknown workload %q (have %v)", o.Workload, WorkloadNames())
	}
	if spec.sc && !sc {
		return workloadRun{}, fmt.Errorf("mcheck: workload %q needs sequential consistency; %s guarantees DRF programs only", o.Workload, o.Protocol)
	}
	if o.Hosts == 0 {
		o.Hosts = spec.defaultHosts
	}
	if spec.fixedHosts && o.Hosts != spec.defaultHosts {
		return workloadRun{}, fmt.Errorf("mcheck: workload %q requires exactly %d hosts", o.Workload, spec.defaultHosts)
	}
	if o.Hosts < 2 {
		return workloadRun{}, fmt.Errorf("mcheck: workload %q needs at least 2 hosts", o.Workload)
	}
	return spec.build(o.Hosts, o.Seed), nil
}
