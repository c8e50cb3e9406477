// Package faultnet is the deterministic fault-injection policy for the
// simulated cluster fabric. A Plan describes what can go wrong on the
// wire — per-frame drop/duplicate/reorder probabilities, extra delay
// jitter, scheduled bidirectional partitions that heal at a virtual
// time, and host crash/restart events — and an Injector turns the plan
// into a stream of per-frame decisions drawn from a seeded RNG, so a
// run under faults replays bit-identically for a given (plan, seed).
//
// The package is pure policy: it owns no wires and schedules no events.
// fastmsg consults the injector at transmit and arrival time and layers
// a sequence-numbered ack/retransmit protocol on top (see fastmsg's
// reliable.go); the cluster runtime schedules the crash and restart
// events and drives recovery. A nil Plan — or a Plan with every rate
// zero and no schedule — means the fabric behaves exactly as the
// paper's reliable FIFO FastMessages, on the untouched clean path.
package faultnet

import (
	"fmt"
	"math/rand"

	"millipage/internal/sim"
)

// Plan describes one run's fault schedule. The zero value is the clean
// fabric (Enabled returns false).
type Plan struct {
	// Seed, when nonzero, overrides the cluster seed for the injector's
	// RNG stream. Either way the stream is independent of the engine's
	// RNG, so enabling faults never perturbs sweeper-timer draws.
	Seed int64

	// Per-frame probabilities in [0,1). Every transmitted frame —
	// protocol messages, bulk data and transport acks alike — draws
	// independently.
	Drop float64 // frame vanishes on the wire
	Dup  float64 // frame is delivered twice

	// Reorder is the probability a frame is held back by an extra
	// uniform delay in (0, Jitter], letting later frames overtake it.
	// Reorder > 0 requires Jitter > 0.
	Reorder float64
	Jitter  sim.Duration

	// Partitions are scheduled bidirectional cuts: while From <= now <
	// Until, no frame crosses between a host in mask A and a host in
	// mask B (either direction). Windows may overlap.
	Partitions []Partition

	// Crashes are scheduled host failures. See the Crash doc for the
	// recovery model.
	Crashes []Crash

	// Retransmit timer bounds for the reliability layer; zero selects
	// the defaults (3ms and 50ms of virtual time). RTOMin is the ceiling
	// of a link's first timeout, which is otherwise the wire's round trip
	// of the largest frame sent so far at the jitter bound, with slack;
	// RTOMax caps the exponential backoff.
	RTOMin sim.Duration
	RTOMax sim.Duration
}

// Partition is one scheduled bidirectional cut between host sets A and B
// (bitmasks, bit i = host i). It heals at Until.
type Partition struct {
	A, B  uint64
	From  sim.Time
	Until sim.Time
}

// Crash takes a host's network stack down at At and restarts it at
// RestartAt. The model is fail-restart with durable memory: the host's
// memory contents, page protections and directory state survive (the
// production analogue is a checkpoint or battery-backed store), but its
// network state does not — frames on the wire to it are lost, received-
// but-unserviced messages are discarded, and undelivered timer state is
// gone. The reliability layer's durable session floors and the restart
// flush of its own outbound sessions bring the host back into the
// protocol: the peers' retransmissions re-deliver what it lost.
type Crash struct {
	Host      int
	At        sim.Time
	RestartAt sim.Time
}

// DefaultRTOMin is the ceiling of a link's first retransmission timeout
// (the one a plan with a large Jitter reaches), and DefaultRTOMax the
// ceiling of its exponential backoff.
const (
	DefaultRTOMin = 3 * sim.Millisecond
	DefaultRTOMax = 50 * sim.Millisecond
)

// Enabled reports whether the plan injects any fault at all. A disabled
// plan leaves the transport on its clean path: no sequence numbers, no
// acks, zero allocation and zero virtual-time cost.
func (pl *Plan) Enabled() bool {
	if pl == nil {
		return false
	}
	return pl.Drop > 0 || pl.Dup > 0 || pl.Reorder > 0 ||
		len(pl.Partitions) > 0 || len(pl.Crashes) > 0
}

// Validate checks the plan against a cluster of `hosts` hosts.
func (pl *Plan) Validate(hosts int) error {
	if pl == nil {
		return nil
	}
	checkProb := func(name string, p float64) error {
		if p < 0 || p >= 1 {
			return fmt.Errorf("faultnet: %s = %v out of range [0,1)", name, p)
		}
		return nil
	}
	if err := checkProb("Drop", pl.Drop); err != nil {
		return err
	}
	if err := checkProb("Dup", pl.Dup); err != nil {
		return err
	}
	if err := checkProb("Reorder", pl.Reorder); err != nil {
		return err
	}
	if pl.Jitter < 0 {
		return fmt.Errorf("faultnet: negative Jitter %v", pl.Jitter)
	}
	if pl.Reorder > 0 && pl.Jitter == 0 {
		return fmt.Errorf("faultnet: Reorder = %v needs a nonzero Jitter", pl.Reorder)
	}
	allHosts := uint64(1)<<uint(hosts) - 1
	if hosts >= 64 {
		allHosts = ^uint64(0)
	}
	for i, pt := range pl.Partitions {
		if pt.A == 0 || pt.B == 0 {
			return fmt.Errorf("faultnet: partition %d has an empty side", i)
		}
		if pt.A&^allHosts != 0 || pt.B&^allHosts != 0 {
			return fmt.Errorf("faultnet: partition %d names hosts outside the %d-host cluster", i, hosts)
		}
		if pt.A&pt.B != 0 {
			return fmt.Errorf("faultnet: partition %d has overlapping sides", i)
		}
		if pt.Until <= pt.From {
			return fmt.Errorf("faultnet: partition %d never heals (From %v, Until %v)", i, pt.From, pt.Until)
		}
	}
	for i, c := range pl.Crashes {
		if c.Host < 0 || c.Host >= hosts {
			return fmt.Errorf("faultnet: crash %d names host %d outside the %d-host cluster", i, c.Host, hosts)
		}
		if c.RestartAt <= c.At {
			return fmt.Errorf("faultnet: crash %d never restarts (At %v, RestartAt %v)", i, c.At, c.RestartAt)
		}
	}
	return nil
}

// RTOBounds returns the plan's retransmission-timer bounds with
// defaults applied.
func (pl *Plan) RTOBounds() (lo, hi sim.Duration) {
	lo, hi = pl.RTOMin, pl.RTOMax
	if lo <= 0 {
		lo = DefaultRTOMin
	}
	if hi < lo {
		hi = DefaultRTOMax
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Injector is the per-run decision stream for a plan: a private seeded
// RNG plus the plan's schedule. All methods must be called from
// simulation context (the engine is serial), in which case identical
// call sequences draw identical decisions.
type Injector struct {
	plan  Plan
	hosts int
	rng   *rand.Rand
}

// NewInjector builds the injector for plan on a `hosts`-host cluster.
// clusterSeed seeds the decision stream unless the plan pins its own
// seed; the stream is mixed so it never collides with the engine RNG's.
func NewInjector(plan Plan, hosts int, clusterSeed int64) (*Injector, error) {
	if err := plan.Validate(hosts); err != nil {
		return nil, err
	}
	seed := plan.Seed
	if seed == 0 {
		seed = clusterSeed
	}
	// splitmix64-style scramble: a distinct, well-spread stream per seed.
	mixed := uint64(seed) + 0x9e3779b97f4a7c15
	mixed = (mixed ^ (mixed >> 30)) * 0xbf58476d1ce4e5b9
	mixed = (mixed ^ (mixed >> 27)) * 0x94d049bb133111eb
	mixed ^= mixed >> 31
	return &Injector{
		plan:  plan,
		hosts: hosts,
		rng:   rand.New(rand.NewSource(int64(mixed))),
	}, nil
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// DropFrame draws whether the next transmitted frame is lost.
func (in *Injector) DropFrame() bool {
	return in.plan.Drop > 0 && in.rng.Float64() < in.plan.Drop
}

// DupFrame draws whether the next transmitted frame is delivered twice.
func (in *Injector) DupFrame() bool {
	return in.plan.Dup > 0 && in.rng.Float64() < in.plan.Dup
}

// ExtraDelay draws the frame's reorder jitter: zero for most frames,
// uniform in (0, Jitter] with probability Reorder.
func (in *Injector) ExtraDelay() sim.Duration {
	if in.plan.Reorder == 0 || in.rng.Float64() >= in.plan.Reorder {
		return 0
	}
	return 1 + sim.Duration(in.rng.Int63n(int64(in.plan.Jitter)))
}

// Partitioned reports whether hosts a and b are on opposite sides of an
// active partition window at time now.
func (in *Injector) Partitioned(a, b int, now sim.Time) bool {
	if len(in.plan.Partitions) == 0 {
		return false
	}
	ba, bb := uint64(1)<<uint(a), uint64(1)<<uint(b)
	for _, pt := range in.plan.Partitions {
		if now < pt.From || now >= pt.Until {
			continue
		}
		if (pt.A&ba != 0 && pt.B&bb != 0) || (pt.A&bb != 0 && pt.B&ba != 0) {
			return true
		}
	}
	return false
}

// Crashes returns the plan's crash schedule.
func (in *Injector) Crashes() []Crash { return in.plan.Crashes }
