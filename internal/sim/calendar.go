package sim

// The calendar is a sorted array of pointer-free keys over a slab of
// payloads. It is small — ten to forty pending events on the
// measured workloads, a few hundred at worst (EXPERIMENTS.md, "Event
// core") — and at that size an insertion scan over 24-byte keys beats a
// heap's data-dependent sifts of whole event records several times over.
// The keys sit in descending (at, seq) order, minimum last: pop is a
// length decrement, and push scans from the near-term end, so a timer
// far in the future is never moved by the near-term traffic in front of
// it. An event scheduled for the current instant lands next to the
// minimum, which is why no separate same-instant FIFO exists.
//
// (at, seq) is a strict total order, so the pop order — and with it the
// engine's determinism — does not depend on the structure that keeps it.
//
// Payloads are typed rather than closures: the common operations —
// resuming a parked process, delivering a message — are encoded as a
// *Proc pointer or a (func(any), arg) pair, so the hot paths schedule
// without allocating. Plain func() callbacks ride in arg behind a
// package-level trampoline.

// key orders one pending event. Events with equal timestamps fire in
// scheduling order (seq), which is what makes the engine deterministic.
type key struct {
	at   Time
	seq  uint64
	slot uint32 // index of the event's payload in calendar.slab
}

func (k key) before(at Time, seq uint64) bool {
	return k.at < at || k.at == at && k.seq < seq
}

// payload is what an event does when it fires. Exactly one of proc / fn
// is set: a resume event hands control to proc, a callback event invokes
// fn(arg) in engine context.
type payload struct {
	proc *Proc
	fn   func(any)
	arg  any
}

// callFunc0 is the trampoline that lets argument-less callbacks share
// the typed payload: the func() itself travels in arg.
func callFunc0(a any) { a.(func())() }

// calendar is the event queue. keys and slab always have equal length,
// and the slot fields of keys are a permutation of the slab's indices:
// keys[:n] are the pending events, keys[n:] carry the free slots. A pop
// thus frees its slot by decrementing n, and a push takes the slot at
// keys[n] before overwriting it. The zero value is an empty calendar
// that owns no memory until its first push.
type calendar struct {
	keys []key
	slab []payload
	n    int
	peak int // high-water mark of n
}

// minAt returns the time of the earliest event, maxTime when there is
// none: no event fires at or past maxTime, so callers need not tell an
// empty calendar from one with nothing in reach.
func (c *calendar) minAt() Time {
	if c.n == 0 {
		return maxTime
	}
	return c.keys[c.n-1].at
}

func (c *calendar) push(at Time, seq uint64, pl payload) {
	if c.n == len(c.keys) {
		c.grow()
	}
	keys, i := c.keys, c.n
	slot := keys[i].slot
	c.slab[slot] = pl
	for ; i > 0 && keys[i-1].before(at, seq); i-- {
		keys[i] = keys[i-1]
	}
	keys[i] = key{at: at, seq: seq, slot: slot}
	if c.n++; c.n > c.peak {
		c.peak = c.n
	}
}

// grow doubles both arrays together, starting at 64 entries: pending
// events rarely exceed that, so an engine pays two allocations on its
// first push and, as a rule, none after.
func (c *calendar) grow() {
	old := len(c.keys)
	size := max(64, 2*old)
	keys, slab := make([]key, size), make([]payload, size)
	copy(keys, c.keys)
	copy(slab, c.slab)
	for i := old; i < size; i++ {
		keys[i].slot = uint32(i)
	}
	c.keys, c.slab = keys, slab
}

// pop removes the earliest event and returns its time and payload. The
// slot is cleared, so neither a popped nor a free slot ever pins a dead
// Proc or callback argument for the garbage collector.
func (c *calendar) pop() (Time, payload) {
	c.n--
	k := &c.keys[c.n]
	pl := c.slab[k.slot]
	c.slab[k.slot] = payload{}
	return k.at, pl
}

// ties returns the events tied at the minimum timestamp: the tail of the
// pending keys, latest-scheduled first.
func (c *calendar) ties() []key {
	i := c.n - 1
	for at := c.keys[i].at; i > 0 && c.keys[i-1].at == at; i-- {
	}
	return c.keys[i:c.n]
}
