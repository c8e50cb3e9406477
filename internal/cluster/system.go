package cluster

import (
	"fmt"

	"millipage/internal/fastmsg"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// System is the protocol-independent face of one protocol's cluster:
// everything the root package, the model checker, the CLIs and the
// conformance suites need, so none of them switches on the concrete
// type. Every protocol's System type satisfies it by embedding a
// Lifecycle and adding Totals; internal/registry builds one by name.
type System interface {
	// Runtime returns the shared substrate (engine, network, hosts,
	// threads), the basis of all protocol-independent reporting.
	Runtime() *Runtime
	// Run executes body on every application thread and drives the
	// simulation until all of them finish. A System runs one application;
	// a second call is an error.
	Run(body func(AppThread)) error
	// Totals returns the run's protocol counters.
	Totals() Totals
}

// Totals is the protocol-independent counter set. A field stays zero
// where a protocol has no equivalent.
type Totals struct {
	Invalidations     uint64
	CompetingRequests uint64 // requests queued behind open transactions
	ExclusiveReads    uint64 // SC reads under a lock that the home served as write misses
	BarrierEpisodes   uint64
	LockAcquisitions  uint64

	// Footprint (Table 2 columns).
	Minipages      int
	ViewsUsed      int
	BytesAllocated int
}

// Lifecycle is the half of a System that is the same under every
// protocol: the defaulted options, the runtime, the protocol's hosts and
// thread wrappers, and Run. A protocol's System embeds it (H is its host
// type, T its thread wrapper) and keeps only fault/message policy and
// directory state of its own.
type Lifecycle[H HostHandler, T AppThread] struct {
	Opt Options // as defaulted by Init
	Eng *sim.Engine
	Net *fastmsg.Network

	rt      *Runtime
	hosts   []H
	threads []T
	wrap    func(*Thread, H) T
}

// Init validates opt and builds the runtime (see New). wrap makes the
// protocol's wrapper for one substrate thread on host h; Run installs it
// as the thread's fault-handler context.
func (l *Lifecycle[H, T]) Init(name string, opt Options, tr Traits, wrap func(t *Thread, h H) T) error {
	rt, err := New(name, opt, tr)
	if err != nil {
		return err
	}
	*l = Lifecycle[H, T]{Opt: rt.Opt, Eng: rt.Eng, Net: rt.Net, rt: rt, wrap: wrap, hosts: make([]H, 0, rt.Opt.Hosts)}
	return nil
}

// AddHost attaches h, with address space as and consistency hooks cons (nil
// for none), as the next host and returns the substrate host for h to embed.
func (l *Lifecycle[H, T]) AddHost(as *vm.AddressSpace, h H, cons Consistency) *Host {
	l.hosts = append(l.hosts, h)
	return l.rt.NewHost(as, h, cons)
}

// Runtime returns the shared cluster substrate.
func (l *Lifecycle[H, T]) Runtime() *Runtime { return l.rt }

// Host returns host i.
func (l *Lifecycle[H, T]) Host(i int) H { return l.hosts[i] }

// NumHosts returns the cluster size.
func (l *Lifecycle[H, T]) NumHosts() int { return len(l.hosts) }

// Threads returns the application threads after Run (for statistics).
func (l *Lifecycle[H, T]) Threads() []T { return l.threads }

// Elapsed returns the virtual time at which the simulation stopped — the
// parallel execution time of the application.
func (l *Lifecycle[H, T]) Elapsed() sim.Duration { return l.rt.Elapsed() }

// HomeOf returns minipage id's home, Options.HomeOf's answer (New defaults
// it): the one placement function, whatever the protocol.
func (l *Lifecycle[H, T]) HomeOf(id int) int { return l.Opt.HomeOf(id, l.Opt.Hosts) }

// CheckHomes panics as misuse unless HomeOf homes each of the minipage
// ids [lo, hi) on a host. The allocator calls it as it opens them, so a
// placement outside the cluster fails at the Malloc that first asks it,
// not as an index out of range under a later send.
func (l *Lifecycle[H, T]) CheckHomes(lo, hi int) {
	for id, n := lo, l.Opt.Hosts; id < hi; id++ {
		if home := l.HomeOf(id); home < 0 || home >= n {
			l.rt.Misuse(Coordinator, "HomeOf(%d, %d) = %d is not a host", id, n, home)
		}
	}
}

// Run starts ThreadsPerHost application threads on every host, each
// executing body, and drives the simulation until all of them finish.
// body receives the protocol's thread wrapper, which is the entire
// application-facing DSM API. The run-twice guard is Runtime.Run's.
func (l *Lifecycle[H, T]) Run(body func(AppThread)) error {
	if body == nil {
		return fmt.Errorf("%s: nil thread body", l.rt.Name)
	}
	return l.rt.Run(func(ct *Thread) func() {
		t := l.wrap(ct, l.hosts[ct.Host()])
		ct.SetSelf(t)
		l.threads = append(l.threads, t)
		return func() { body(t) }
	})
}
