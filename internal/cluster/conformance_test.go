// Conformance tests: the DESIGN.md §8 sharing invariants, run
// generically against every protocol through the cluster substrate and
// the protocol-independent AppThread surface. The checkers and workload
// bodies live in internal/check so the model checker (internal/mcheck)
// asserts the same properties after every explored schedule; these
// tests pin them on the default schedule. The SW/MR and
// sequential-consistency properties apply to the two SC protocols
// (millipage's dsm and ivy); lrc-mw is lazy release consistency, which
// deliberately allows concurrent writers between synchronization points,
// so it joins only the data-race-free tests — the guarantee LRC actually
// makes.
package cluster_test

import (
	"fmt"
	"strings"
	"testing"

	"millipage/internal/check"
	"millipage/internal/cluster"
	"millipage/internal/faultnet"
	"millipage/internal/registry"
)

// protoRun is one protocol under test: a registry entry, optionally with
// replicated management on top (failover_test.go). The conformance, chaos
// and failover suites all build their clusters through make.
type protoRun struct {
	name string
	spec registry.Spec // spec.SC: sequentially consistent for racy (non-DRF) programs
	repl bool          // home-based management with primary/backup shard replication
}

// protocols returns every registered protocol, then the "lrc" alias of
// lrc-mw: a name the registry accepts gets the oracles of the protocol it
// builds.
func protocols() []protoRun {
	var prs []protoRun
	for _, name := range append(registry.Names(), "lrc") {
		spec, _ := registry.Lookup(name)
		prs = append(prs, protoRun{name: name, spec: spec})
	}
	return prs
}

// make builds the protocol's cluster; plan is nil for a clean wire.
func (pr protoRun) make(hosts int, seed int64, plan *faultnet.Plan) (cluster.System, error) {
	opt := registry.Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8, Seed: seed, Faults: plan}
	if pr.repl {
		opt.HomeOf, opt.Replication = cluster.HomeMod, true
	}
	return pr.spec.New(opt)
}

// TestSWMRInvariant drives a random-ish read/write workload over shared
// words and asserts SW/MR after every completed operation, for each SC
// protocol (DESIGN.md §8, first invariant).
func TestSWMRInvariant(t *testing.T) {
	const hosts = 4
	for _, pr := range protocols() {
		if !pr.spec.SC {
			continue // LRC allows concurrent writers between synch points by design
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", pr.name, seed), func(t *testing.T) {
				sys, err := pr.make(hosts, seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				wl := &check.SWMRSweep{Words: 4, Iters: 24, Seed: uint64(seed), Prots: check.RuntimeProts{RT: sys.Runtime()}}
				if err := sys.Run(wl.Body); err != nil {
					t.Fatal(err)
				}
				if err := wl.Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSCMessagePassing is the message-passing litmus: host 0 publishes
// data then raises a flag; a spinning host 1 that observes the flag must
// observe the data (forbidden outcome: flag=1, data=0). Spinning on
// shared memory is racy, so this runs on the SC protocols only.
func TestSCMessagePassing(t *testing.T) {
	for _, pr := range protocols() {
		if !pr.spec.SC {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", pr.name, seed), func(t *testing.T) {
				sys, err := pr.make(2, seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				wl := &check.MessagePassing{}
				if err := sys.Run(wl.Body); err != nil {
					t.Fatal(err)
				}
				if err := wl.Err(); err != nil {
					t.Fatalf("%s: %v", pr.name, err)
				}
			})
		}
	}
}

// TestSCDekker is the store-buffering litmus: each host writes its own
// word then reads the other's. Under sequential consistency at least one
// host must observe the other's write; r0=r1=0 is the forbidden outcome.
func TestSCDekker(t *testing.T) {
	for _, pr := range protocols() {
		if !pr.spec.SC {
			continue
		}
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", pr.name, seed), func(t *testing.T) {
				sys, err := pr.make(2, seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				wl := &check.Dekker{}
				if err := sys.Run(wl.Body); err != nil {
					t.Fatal(err)
				}
				if err := wl.Err(); err != nil {
					t.Fatalf("%s: %v", pr.name, err)
				}
			})
		}
	}
}

// workload is one program body and the oracle to consult after its run.
type workload struct {
	body func(cluster.AppThread)
	err  func() error
}

// drfWorkloads are the data-race-free programs every protocol must run to
// their oracle state on a cluster of the given size.
func drfWorkloads(hosts int) []workload {
	drf := &check.DRF{Hosts: hosts, Rounds: 3, LockReps: 2}
	dirty := &check.DirtyAcquire{Hosts: hosts}
	return []workload{{drf.Body, drf.Err}, {dirty.Body, dirty.Err}}
}

// TestDRFAgreement runs the barrier- and lock-structured (data-race-free)
// programs under every protocol and asserts every protocol produces the
// exact oracle state. This is the portability contract of the Protocol
// interface: a DRF application may switch Config.Protocol freely without
// changing results.
func TestDRFAgreement(t *testing.T) {
	const hosts = 4
	for _, pr := range protocols() {
		t.Run(pr.name, func(t *testing.T) {
			for _, wl := range drfWorkloads(hosts) {
				sys, err := pr.make(hosts, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.Run(wl.body); err != nil {
					t.Fatal(err)
				}
				if err := wl.err(); err != nil {
					t.Fatalf("%s: %v", pr.name, err)
				}
			}
		})
	}
}

// TestChunkExtendedAllocation runs the allocation-placement program under
// every protocol with chunking off and on. At chunk level 4 host 0's
// allocation extends the minipage host 1's opened: its write must reach
// host 2 like any other.
func TestChunkExtendedAllocation(t *testing.T) {
	for _, pr := range protocols() {
		for _, chunk := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/chunk%d", pr.name, chunk), func(t *testing.T) {
				sys, err := pr.spec.New(registry.Options{Hosts: 3, SharedSize: 1 << 16, Views: 8, ChunkLevel: chunk})
				if err != nil {
					t.Fatal(err)
				}
				wl := &check.ChunkExtend{}
				if err := sys.Run(wl.Body); err != nil {
					t.Fatal(err)
				}
				if err := wl.Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestServiceMisuse: an application's misuse of the allocator or a lock
// fails once, the same way under every protocol — a panic out of Run
// naming the protocol, the requesting host and what it asked for — from
// the coordinator's own host and from a remote one.
func TestServiceMisuse(t *testing.T) {
	cases := []struct {
		name string
		op   func(w cluster.AppThread)
		want string // after "<protocol>: host <h>: "
	}{
		{"malloc-zero", func(w cluster.AppThread) { w.Malloc(0) }, "Malloc(0): size must be positive"},
		{"malloc-negative", func(w cluster.AppThread) { w.Malloc(-8) }, "Malloc(-8): size must be positive"},
		{"out-of-memory", func(w cluster.AppThread) { w.Malloc(1 << 20) }, "Malloc(1048576): "},
		{"unlock-free", func(w cluster.AppThread) { w.Unlock(3) }, "unlock of free lock 3"},
		{"unlock-not-holder", func(w cluster.AppThread) { w.Unlock(5) }, "unlock of lock 5, which host 2 holds"},
	}
	for _, pr := range protocols() {
		for _, tc := range cases {
			for _, host := range []int{0, 1} {
				t.Run(fmt.Sprintf("%s/%s/host%d", pr.name, tc.name, host), func(t *testing.T) {
					sys, err := pr.make(3, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					want := fmt.Sprintf("%s: host %d: %s", sys.Runtime().Name, host, tc.want)
					defer func() {
						if got := fmt.Sprint(recover()); !strings.HasPrefix(got, want) {
							t.Fatalf("Run panicked with %q, want %q...", got, want)
						}
					}()
					err = sys.Run(func(w cluster.AppThread) {
						if w.Host() == 2 {
							w.Lock(5)
						}
						w.Barrier()
						if w.Host() == host {
							tc.op(w)
						}
						w.Barrier()
					})
					t.Fatalf("Run returned %v", err)
				})
			}
		}
	}
}

// TestHomeOfOutsideTheClusterIsMisuse: a HomeOf that names a host outside
// [0, Hosts) fails at the allocation that first asks it — on the
// coordinator, off the fault path — as the kernel's misuse panic, wherever
// the Malloc came from; not as an index out of range under a later send.
func TestHomeOfOutsideTheClusterIsMisuse(t *testing.T) {
	for _, host := range []int{0, 1} {
		t.Run(fmt.Sprintf("malloc-on-host%d", host), func(t *testing.T) {
			sys, err := registry.New("millipage", registry.Options{Hosts: 2, SharedSize: 1 << 16, Views: 8,
				HomeOf: func(id, hosts int) int { return hosts + 3 }})
			if err != nil {
				t.Fatal(err)
			}
			const want = "dsm: host 0: HomeOf(0, 2) = 5 is not a host"
			defer func() {
				if got := fmt.Sprint(recover()); got != want {
					t.Fatalf("Run panicked with %q, want %q", got, want)
				}
			}()
			err = sys.Run(func(w cluster.AppThread) {
				if w.Host() == host {
					w.Malloc(64)
				}
				w.Barrier()
			})
			t.Fatalf("Run returned %v", err)
		})
	}
}

// TestAccessFailureNamesThread: a shared-memory access that cannot complete
// — here, to an address no view maps — fails the same way through all eight
// access methods and under every protocol: a panic out of Run naming the
// protocol, the thread, the kind of access and the address, then the cause.
func TestAccessFailureNamesThread(t *testing.T) {
	const va = 0x18 // below every view
	ops := []struct {
		name, kind string
		op         func(w cluster.AppThread)
	}{
		{"Read", "read", func(w cluster.AppThread) { w.Read(va, make([]byte, 8)) }},
		{"Write", "write", func(w cluster.AppThread) { w.Write(va, make([]byte, 8)) }},
		{"ReadU32", "read", func(w cluster.AppThread) { w.ReadU32(va) }},
		{"WriteU32", "write", func(w cluster.AppThread) { w.WriteU32(va, 1) }},
		{"ReadU64", "read", func(w cluster.AppThread) { w.ReadU64(va) }},
		{"WriteU64", "write", func(w cluster.AppThread) { w.WriteU64(va, 1) }},
		{"ReadF64", "read", func(w cluster.AppThread) { w.ReadF64(va) }},
		{"WriteF64", "write", func(w cluster.AppThread) { w.WriteF64(va, 1) }},
	}
	for _, pr := range protocols() {
		for _, tc := range ops {
			t.Run(pr.name+"/"+tc.name, func(t *testing.T) {
				sys, err := pr.make(3, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprintf("%s: thread 1: %s %#x: vm: address not mapped: %#x", sys.Runtime().Name, tc.kind, va, va)
				defer func() {
					if got := fmt.Sprint(recover()); got != want {
						t.Fatalf("Run panicked with %q, want %q", got, want)
					}
				}()
				err = sys.Run(func(w cluster.AppThread) {
					if w.ThreadID() == 1 {
						tc.op(w)
					}
					w.Barrier()
				})
				t.Fatalf("Run returned %v", err)
			})
		}
	}
}

// TestConcurrentMergeAgreement runs the multiple-writer agreement
// program — every host writes its own word of ONE shared minipage each
// round — under every protocol. The program is DRF, so every protocol
// must converge on the oracle state; under lrc-mw it forces the
// twin/diff machinery to merge concurrent intervals from every host
// into the same minipage without losing a neighbor's bytes.
func TestConcurrentMergeAgreement(t *testing.T) {
	const hosts = 4
	for _, pr := range protocols() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", pr.name, seed), func(t *testing.T) {
				sys, err := pr.make(hosts, seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				wl := &check.ConcurrentMerge{Hosts: hosts, Rounds: 3}
				if err := sys.Run(wl.Body); err != nil {
					t.Fatal(err)
				}
				if err := wl.Err(); err != nil {
					t.Fatalf("%s: %v", pr.name, err)
				}
			})
		}
	}
}
