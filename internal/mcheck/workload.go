package mcheck

import (
	"fmt"
	"sort"

	"millipage/internal/check"
	"millipage/internal/cluster"
	"millipage/internal/sim"
)

// workloadRun is one built workload instance: the portable body every
// thread executes, and the oracle to consult after the run.
type workloadRun struct {
	hosts int
	body  func(rt *cluster.Runtime, w cluster.AppThread)
	err   func() error
}

// workloadSpec names a workload and its constraints.
type workloadSpec struct {
	defaultHosts int
	fixedHosts   bool // body shape requires exactly defaultHosts
	sc           bool // requires sequential consistency (not runnable under lrc)
	repl         bool // exercises replicated management (millipage-repl only)
	build        func(hosts int, seed int64) workloadRun
}

// failoverVictim is the host whose directory primary the "manager-kill"
// fault preset crashes; the failover workload hammers minipages homed
// there so the kill lands mid-transaction.
const failoverVictim = 1

var workloads = map[string]workloadSpec{
	// swmr: seed-dependent read/write mix with the SW/MR page-table
	// invariant asserted after every operation.
	"swmr": {defaultHosts: 4, sc: true, build: func(hosts int, seed int64) workloadRun {
		wl := &check.SWMRSweep{Words: 4, Iters: 12, Seed: uint64(seed)}
		return workloadRun{
			hosts: hosts,
			body: func(rt *cluster.Runtime, w cluster.AppThread) {
				if wl.Prots == nil {
					wl.Prots = check.RuntimeProts{RT: rt}
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
		return workloadRun{hosts: hosts, body: func(rt *cluster.Runtime, w cluster.AppThread) { wl.Body(w) }, err: wl.Err}
	}},
	// dekker: the store-buffering litmus; exactly two hosts.
	"dekker": {defaultHosts: 2, fixedHosts: true, sc: true, build: func(hosts int, seed int64) workloadRun {
		wl := &check.Dekker{}
		return workloadRun{hosts: hosts, body: func(rt *cluster.Runtime, w cluster.AppThread) { wl.Body(w) }, err: wl.Err}
	}},
	// drf: the barrier/lock-structured agreement program; runnable
	// under all three protocols, LRC included.
	"drf": {defaultHosts: 3, build: func(hosts int, seed int64) workloadRun {
		wl := &check.DRF{Hosts: hosts, Rounds: 2, LockReps: 2}
		return workloadRun{hosts: hosts, body: func(rt *cluster.Runtime, w cluster.AppThread) { wl.Body(w) }, err: wl.Err}
	}},
	// merge: the multiple-writer agreement program — every host writes
	// its own word of one shared minipage each round. DRF, so runnable
	// under every protocol; under lrc-mw it exercises twin/diff merging
	// of concurrent intervals directly.
	"merge": {defaultHosts: 3, build: func(hosts int, seed int64) workloadRun {
		wl := &check.ConcurrentMerge{Hosts: hosts, Rounds: 2}
		return workloadRun{hosts: hosts, body: func(rt *cluster.Runtime, w cluster.AppThread) { wl.Body(w) }, err: wl.Err}
	}},
	// failover: the replicated-management litmus. Every surviving host
	// runs a lock-guarded increment burst against a minipage homed at
	// failoverVictim, starting right after the opening barrier so the
	// manager-kill preset's crash (2ms in) lands in the middle of the
	// burst — on some explored schedules between a directory mutation's
	// mirror to the backup and its ack to the requester. The oracle is
	// the accumulator's high-water mark: the last increment to land
	// observes the full sum iff no increment was lost to the dead
	// primary or redone by the promoted backup.
	"failover": {defaultHosts: 4, sc: true, repl: true, build: func(hosts int, seed int64) workloadRun {
		const incs = 6
		vas := make([]uint64, hosts)
		var maxSeen uint32
		return workloadRun{hosts: hosts, body: func(rt *cluster.Runtime, w cluster.AppThread) {
			if w.Host() == 0 {
				for i := range vas {
					vas[i] = w.Malloc(64) // minipage i, homed at host i
					w.WriteU32(vas[i], 0)
				}
			}
			w.Barrier()
			if w.Host() == failoverVictim {
				return // its host crashes mid-burst; the survivors carry on
			}
			for i := 0; i < incs; i++ {
				w.Lock(0)
				v := w.ReadU32(vas[failoverVictim]) + 1
				w.WriteU32(vas[failoverVictim], v)
				if v > maxSeen {
					maxSeen = v
				}
				w.Unlock(0)
				// Spread the burst across the crash window so requests are
				// in flight at the primary when it dies.
				w.Compute(400 * sim.Microsecond)
			}
		}, err: func() error {
			want := uint32((hosts - 1) * incs)
			if maxSeen != want {
				return fmt.Errorf("failover accumulator high-water = %d, want %d (increments lost or redone across the view change)", maxSeen, want)
			}
			return nil
		}}
	}},
	// drf-nolock: the intentionally injected bug — the accumulator
	// update races because the lock is skipped. Exploration must catch
	// the lost update; used by self-tests and demos, never by CI gates
	// that expect success.
	"drf-nolock": {defaultHosts: 3, build: func(hosts int, seed int64) workloadRun {
		wl := &check.DRF{Hosts: hosts, Rounds: 1, LockReps: 2, SkipLock: true}
		return workloadRun{hosts: hosts, body: func(rt *cluster.Runtime, w cluster.AppThread) { wl.Body(w) }, err: wl.Err}
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
// workload instance for one run. sc and repl describe o.Protocol (see
// resolve): sequentially consistent, replicated management.
func buildWorkload(o *Options, sc, repl bool) (workloadRun, error) {
	spec, ok := workloads[o.Workload]
	if !ok {
		return workloadRun{}, fmt.Errorf("mcheck: unknown workload %q (have %v)", o.Workload, WorkloadNames())
	}
	if spec.sc && !sc {
		return workloadRun{}, fmt.Errorf("mcheck: workload %q needs sequential consistency; %s guarantees DRF programs only", o.Workload, o.Protocol)
	}
	if spec.repl && !repl {
		return workloadRun{}, fmt.Errorf("mcheck: workload %q exercises replicated directory management; run it under the millipage-repl protocol", o.Workload)
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
