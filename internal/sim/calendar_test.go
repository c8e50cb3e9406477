package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refQueue is the retired container/heap calendar, kept here as the
// ordering oracle: (at, seq) lexicographic, exactly what the engine ran
// on before the typed calendars replaced it.
type refEvent struct {
	at  Time
	seq uint64
}

type refQueue []refEvent

func (q refQueue) Len() int      { return len(q) }
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q *refQueue) Push(x any) { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any   { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// oracleCal drives the calendar and the container/heap oracle in
// lockstep. Every push carries its own seq as the payload's arg, so a
// pop checks two things at once: the (at, seq) order, and that the slot
// the key points at still holds the payload pushed with it — slot reuse
// must never cross wires.
type oracleCal struct {
	t   *testing.T
	cal calendar
	ref refQueue
	seq uint64
}

func (o *oracleCal) push(at Time) {
	o.seq++
	o.cal.push(at, o.seq, payload{fn: callFunc0, arg: o.seq})
	heap.Push(&o.ref, refEvent{at: at, seq: o.seq})
}

func (o *oracleCal) pop() Time {
	o.t.Helper()
	if o.cal.minAt() != o.ref[0].at {
		o.t.Fatalf("minAt = %d, reference %d", o.cal.minAt(), o.ref[0].at)
	}
	at, pl := o.cal.pop()
	want := heap.Pop(&o.ref).(refEvent)
	if at != want.at || pl.arg != any(want.seq) || pl.fn == nil || pl.proc != nil {
		o.t.Fatalf("pop = (at=%d payload=%+v), reference (at=%d seq=%d)", at, pl, want.at, want.seq)
	}
	return at
}

func cleared(pl payload) bool { return pl.proc == nil && pl.fn == nil && pl.arg == nil }

// drain pops everything left and checks the structure's invariants: the
// calendar is empty, the slot fields are still a permutation of the
// slab's indices, and no slot keeps a reference.
func (o *oracleCal) drain() {
	o.t.Helper()
	for o.ref.Len() > 0 {
		o.pop()
	}
	c := &o.cal
	if c.n != 0 || c.minAt() != maxTime || len(c.keys) != len(c.slab) {
		o.t.Fatalf("after drain: n=%d minAt=%d, %d keys over %d slots", c.n, c.minAt(), len(c.keys), len(c.slab))
	}
	seen := make([]bool, len(c.slab))
	for _, k := range c.keys {
		if seen[k.slot] {
			o.t.Fatalf("slot %d appears twice in the key array", k.slot)
		}
		seen[k.slot] = true
	}
	for i, pl := range c.slab {
		if !cleared(pl) {
			o.t.Fatalf("slot %d retains references after drain: %+v", i, pl)
		}
	}
}

// TestCalendarMatchesHeapReference drives the calendar and the oracle
// through identical interleaved push/pop schedules — bursts of events
// with heavy timestamp collisions — and requires the same pop order,
// including the seq tiebreak for equal times.
func TestCalendarMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		o := &oracleCal{t: t}
		for op := 0; op < 2000; op++ {
			if o.ref.Len() == 0 || rng.Intn(3) != 0 {
				// Coarse timestamps force collisions so the tiebreak matters.
				o.push(Time(rng.Int63n(50)))
			} else {
				o.pop()
			}
		}
		o.drain()
	}
}

// TestCalendarEngineShapedSchedules replays what the engine does to its
// calendar: time only moves forward, most pushes land a little ahead of
// the clock, wake-ups arrive in bursts at the current instant (a barrier
// release), and retransmit-style timers sit far in the future while
// thousands of near-term events come and go in front of them.
func TestCalendarEngineShapedSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := &oracleCal{t: t}
	now := Time(0)
	for round := 0; round < 40; round++ {
		for i := 0; i < 8; i++ {
			o.push(now + Time(1_000_000+rng.Int63n(1_000_000))) // far-future timers
		}
		for i := 0; i < 2000; i++ { // near-term traffic, pops interleaved
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				o.push(now + Time(rng.Int63n(300)))
			case 4:
				o.push(now) // same-instant wake
			default:
				if o.ref.Len() > 0 {
					now = o.pop()
				}
			}
		}
		for i := 0; i < 256; i++ { // burst at the current instant
			o.push(now)
		}
		for i := 0; i < 128; i++ { // half of it fires; each firing schedules one more
			now = o.pop()
			o.push(now)
		}
	}
	if got := o.cal.peak; got < 256 || got > len(o.cal.keys) {
		t.Fatalf("peak = %d with %d key cells", got, len(o.cal.keys))
	}
	o.drain()
}

// TestCalendarPopClearsSlot guards the slab's hygiene: neither a popped
// slot nor one waiting on the free list may pin a dead Proc or callback
// argument for the garbage collector, at any point — not only once the
// calendar has drained.
func TestCalendarPopClearsSlot(t *testing.T) {
	var cal calendar
	p := &Proc{}
	for i := 1; i <= 6; i++ {
		cal.push(Time(i), uint64(i), payload{proc: p})
		cal.push(Time(i), uint64(i+100), payload{fn: callFunc0, arg: p})
		cal.pop()
		for _, k := range cal.keys[cal.n:] {
			if !cleared(cal.slab[k.slot]) {
				t.Fatalf("free slot %d retains references: %+v", k.slot, cal.slab[k.slot])
			}
		}
	}
	for cal.n > 0 {
		cal.pop()
	}
	for i, pl := range cal.slab {
		if !cleared(pl) {
			t.Fatalf("slot %d retains references after pop: %+v", i, pl)
		}
	}
}

// TestCalendarAllocatesTogetherAndLazily pins the calendar's footprint:
// the first push sizes the key array and the slab together — two
// allocations cover the first 64 pending events, not a growth chain per
// array — and an engine that never schedules owns no memory.
func TestCalendarAllocatesTogetherAndLazily(t *testing.T) {
	if avg := testing.AllocsPerRun(10, func() {
		var cal calendar
		for i := 1; i <= 64; i++ {
			cal.push(Time(i), uint64(i), payload{fn: callFunc0})
		}
	}); avg != 2 {
		t.Errorf("64 pushes into an empty calendar cost %.0f allocations, want 2", avg)
	}
	if c := &NewEngine(1).cal; c.keys != nil || c.slab != nil {
		t.Errorf("a new engine's calendar holds %d cells", len(c.keys))
	}
}
