package check

import (
	"fmt"

	"millipage/internal/cluster"
	"millipage/internal/sim"
)

// The workload bodies below are the DESIGN.md §8 conformance programs
// in portable form: each is a struct holding the run's shared state
// (addresses, observed values, first failure) whose Body method every
// thread executes through the protocol-independent AppThread surface.
// Build one value per run; Err reports the first violation after the
// run completes. The engine runs one process at a time, so the struct
// fields need no locking.

// MessagePassing is the publish/subscribe litmus: host 0 publishes
// data then raises a flag; a spinning host 1 that observes the flag
// must observe the data. Hosts beyond the first two generate
// background traffic so faults and explored schedules have protocol
// state to disturb. Spinning on shared memory is racy, so this runs
// on the SC protocols only.
type MessagePassing struct {
	data, flag uint64
	got        uint32
	seen       bool
}

func (m *MessagePassing) Body(w cluster.AppThread) {
	if w.Host() == 0 {
		m.data = w.Malloc(64)
		m.flag = w.Malloc(64)
		w.WriteU32(m.data, 0)
		w.WriteU32(m.flag, 0)
	}
	w.Barrier()
	switch w.Host() {
	case 0:
		w.Compute(200 * sim.Microsecond)
		w.WriteU32(m.data, 42)
		w.WriteU32(m.flag, 1)
	case 1:
		spins := 0
		for w.ReadU32(m.flag) == 0 {
			if spins++; spins > 100000 {
				panic("message-passing litmus: flag never observed")
			}
			w.Compute(20 * sim.Microsecond)
		}
		m.seen = true
		m.got = w.ReadU32(m.data)
	default:
		for i := 0; i < 8; i++ {
			w.Compute(300 * sim.Microsecond)
		}
	}
	w.Barrier()
}

func (m *MessagePassing) Err() error { return MessagePassingOutcome(m.seen, m.got) }

// Dekker is the store-buffering litmus: each of two hosts writes its
// own word then reads the other's; r0 = r1 = 0 is the forbidden
// outcome. Requires exactly 2 hosts.
type Dekker struct {
	x, y uint64
	r    [2]uint32
}

func (d *Dekker) Body(w cluster.AppThread) {
	if w.Host() == 0 {
		d.x = w.Malloc(64)
		d.y = w.Malloc(64)
		w.WriteU32(d.x, 0)
		w.WriteU32(d.y, 0)
	}
	w.Barrier()
	if w.Host() == 0 {
		w.WriteU32(d.x, 1)
		d.r[0] = w.ReadU32(d.y)
	} else {
		w.WriteU32(d.y, 1)
		d.r[1] = w.ReadU32(d.x)
	}
	w.Barrier()
}

func (d *Dekker) Err() error { return DekkerOutcome(d.r[0], d.r[1]) }

// DRF is the barrier- and lock-structured (data-race-free) agreement
// program: barrier-phased cell hand-offs followed by a lock-guarded
// accumulator. Every protocol — including LRC, whose guarantee covers
// exactly DRF programs — must produce the oracle state.
//
// SkipLock omits the Lock/Unlock pair around the accumulator update.
// That is an intentionally injected bug (the read-modify-write races),
// used by the model checker's self-tests to prove exploration finds
// schedule-dependent lost updates; leave it false everywhere else.
type DRF struct {
	Hosts    int
	Rounds   int
	LockReps int
	SkipLock bool

	cells []uint64
	acc   uint64
	bad   error
}

func (d *DRF) Body(w cluster.AppThread) {
	h := w.Host()
	if h == 0 {
		d.cells = make([]uint64, d.Hosts)
		for i := range d.cells {
			d.cells[i] = w.Malloc(64)
			w.WriteU32(d.cells[i], 0)
		}
		d.acc = w.Malloc(64)
		w.WriteU32(d.acc, 0)
	}
	w.Barrier()
	// Phase 1: ownership hand-off through barriers. In round r, host h
	// writes cell (h+r)%hosts; everyone then reads every cell and
	// checks the value written that round.
	for r := 0; r < d.Rounds; r++ {
		w.WriteU32(d.cells[(h+r)%d.Hosts], uint32(100*r+(h+r)%d.Hosts))
		w.Barrier()
		for c := 0; c < d.Hosts; c++ {
			if err := DRFCellOutcome(r, h, c, w.ReadU32(d.cells[c])); err != nil && d.bad == nil {
				d.bad = err
			}
		}
		w.Barrier()
	}
	// Phase 2: a lock-guarded accumulator.
	for i := 0; i < d.LockReps; i++ {
		if !d.SkipLock {
			w.Lock(3)
		}
		w.WriteU32(d.acc, w.ReadU32(d.acc)+uint32(h+1))
		if !d.SkipLock {
			w.Unlock(3)
		}
		w.Compute(100 * sim.Microsecond)
	}
	w.Barrier()
	if err := DRFAccumulatorOutcome(d.Hosts, d.LockReps, h, w.ReadU32(d.acc)); err != nil && d.bad == nil {
		d.bad = err
	}
	w.Barrier()
}

func (d *DRF) Err() error { return d.bad }

// ConcurrentMerge is the multiple-writer agreement program: every host
// repeatedly writes its own word of ONE shared block (the words share a
// minipage), synchronizes at a barrier, and then checks every other
// host's word. The program is data-race-free — the writes are to
// disjoint bytes and ordered by barriers — so every protocol must
// produce the oracle state; under a multiple-writer LRC it exercises
// twin/diff merging of concurrent intervals directly.
type ConcurrentMerge struct {
	Hosts  int
	Rounds int

	block uint64
	bad   error
}

func (m *ConcurrentMerge) Body(w cluster.AppThread) {
	h := w.Host()
	if h == 0 {
		m.block = w.Malloc(64 * m.Hosts)
		for i := 0; i < m.Hosts; i++ {
			w.WriteU32(m.block+uint64(64*i), 0)
		}
	}
	w.Barrier()
	for r := 0; r < m.Rounds; r++ {
		w.WriteU32(m.block+uint64(64*h), uint32(1000*r+7*h+13))
		w.Barrier()
		for c := 0; c < m.Hosts; c++ {
			if err := MergeWordOutcome(r, h, c, w.ReadU32(m.block+uint64(64*c))); err != nil && m.bad == nil {
				m.bad = err
			}
		}
		w.Barrier()
	}
}

func (m *ConcurrentMerge) Err() error { return m.bad }

// DirtyAcquire is the dirty-acquire litmus, for two or more hosts: every
// host writes 7 into its own word of one minipage host 0 allocated, then
// takes a lock, reads its word back and unlocks; after a barrier every
// host reads every word. The program is data-race-free. A
// release-consistent protocol that drops a dirty copy at the acquire
// refetches the home's bytes over the host's own write, whose diff then
// comes out empty, and the write is lost.
type DirtyAcquire struct {
	Hosts int

	block uint64
	bad   error
}

func (d *DirtyAcquire) Body(w cluster.AppThread) {
	h := w.Host()
	if h == 0 {
		d.block = w.Malloc(4 * d.Hosts)
	}
	w.Barrier()
	mine := d.block + uint64(4*h)
	w.WriteU32(mine, 7)
	w.Lock(0)
	if got := w.ReadU32(mine); got != 7 && d.bad == nil {
		d.bad = fmt.Errorf("host %d reads its own word = %d under the lock, want 7", h, got)
	}
	w.Unlock(0)
	w.Barrier()
	for c := 0; c < d.Hosts; c++ {
		if got := w.ReadU32(d.block + uint64(4*c)); got != 7 && d.bad == nil {
			d.bad = fmt.Errorf("host %d reads word %d = %d after the barrier, want 7", h, c, got)
		}
	}
	w.Barrier()
}

func (d *DirtyAcquire) Err() error { return d.bad }

// ChunkExtend is the allocation-placement program, for three hosts: host
// 1 allocates and writes a word, then host 0 allocates and writes one —
// with chunking on, into the minipage host 1's allocation opened, so the
// allocating host is not the unit's first owner or home — and after a
// barrier every host reads both. The program is data-race-free; a
// protocol that maps host 0's allocation writable without making it a
// writer the others know of loses the second word.
type ChunkExtend struct {
	a, b uint64
	bad  error
}

func (c *ChunkExtend) Body(w cluster.AppThread) {
	if w.Host() == 1 {
		c.a = w.Malloc(64)
		w.WriteU32(c.a, 11)
	}
	w.Barrier()
	if w.Host() == 0 {
		c.b = w.Malloc(64)
		w.WriteU32(c.b, 22)
	}
	w.Barrier()
	if a, b := w.ReadU32(c.a), w.ReadU32(c.b); (a != 11 || b != 22) && c.bad == nil {
		c.bad = fmt.Errorf("host %d reads a=%d b=%d after the barrier, want 11 and 22", w.Host(), a, b)
	}
	w.Barrier()
}

func (c *ChunkExtend) Err() error { return c.bad }

// SWMRSweep drives a seed-dependent read/write mix over Words shared
// words and asserts the SW/MR invariant after every completed
// operation. Prots must be set (normally RuntimeProts around the
// run's cluster) before the body runs.
type SWMRSweep struct {
	Words int
	Iters int
	Seed  uint64
	Prots Prots

	vas []uint64
	bad error
}

func (s *SWMRSweep) Body(w cluster.AppThread) {
	if w.Host() == 0 {
		s.vas = make([]uint64, s.Words)
		for i := range s.vas {
			s.vas[i] = w.Malloc(64)
			w.WriteU32(s.vas[i], 0)
		}
	}
	w.Barrier()
	// Thread-local LCG so each host's access pattern differs but stays
	// deterministic per seed.
	r := s.Seed*2654435761 + uint64(w.Host()+1)*40503
	for it := 0; it < s.Iters; it++ {
		r = r*6364136223846793005 + 1442695040888963407
		va := s.vas[(r>>33)%uint64(s.Words)]
		if (r>>62)&1 == 0 {
			_ = w.ReadU32(va)
		} else {
			w.WriteU32(va, uint32(w.Host()*1000+it))
		}
		if err := SWMR(s.Prots, s.vas); err != nil && s.bad == nil {
			s.bad = fmt.Errorf("host %d op %d: %w", w.Host(), it, err)
		}
		w.Compute(50 * sim.Microsecond)
	}
	w.Barrier()
}

func (s *SWMRSweep) Err() error { return s.bad }
