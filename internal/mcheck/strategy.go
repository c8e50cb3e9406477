package mcheck

import (
	"math/rand"

	"millipage/internal/sim"
)

// Random is the exploration strategy: a seeded uniform shuffle of every
// tie, which diffuses over the schedule space.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a Random strategy seeded with seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

func (s *Random) ChooseTie(ties []sim.EventInfo) int { return s.rng.Intn(len(ties)) }

// Recorder wraps a strategy and records every decision it takes, in
// the order the engine asked. The recorded sequence replays the
// schedule bit-identically through a Replayer.
type Recorder struct {
	Inner     sim.Explorer
	Decisions []Decision
}

func (r *Recorder) ChooseTie(ties []sim.EventInfo) int {
	k := r.Inner.ChooseTie(ties)
	r.Decisions = append(r.Decisions, Decision{N: uint32(len(ties)), Pick: uint32(k)})
	return k
}

// Replayer replays a recorded decision sequence. Once the sequence is
// exhausted it answers 0 (the default engine order) forever.
//
// In strict mode any arity mismatch or out-of-range pick means the
// trace does not correspond to this run, which is a hard error — the
// caller checks Diverged after the run. In clamping mode (strict
// false) mismatches are tolerated by clamping the pick into range;
// the shrinker uses this while mutating prefixes, then re-records a
// canonical trace from whatever schedule the clamped replay produced.
type Replayer struct {
	Decisions []Decision
	Strict    bool

	pos      int
	diverged bool
}

func (r *Replayer) ChooseTie(ties []sim.EventInfo) int {
	if r.pos >= len(r.Decisions) {
		return 0
	}
	d := r.Decisions[r.pos]
	r.pos++
	if int(d.N) != len(ties) {
		r.diverged = true
	}
	if int(d.Pick) >= len(ties) {
		r.diverged = true
		return len(ties) - 1
	}
	return int(d.Pick)
}

// Diverged reports whether any decision failed to line up with the
// run's actual tie structure.
func (r *Replayer) Diverged() bool { return r.diverged }

// Consumed reports how many decisions the run used.
func (r *Replayer) Consumed() int { return r.pos }
