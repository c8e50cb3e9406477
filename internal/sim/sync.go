package sim

// The FIFO collections here (signal waiters, Queue items) are consumed
// from the front. Popping with s = s[1:] would shed front capacity until
// every append reallocates — a steady-state allocation per operation on
// the simulator's hottest paths — so they keep an explicit head index
// and reset to the start of the backing array whenever they drain.

// makeRoom prepares such a collection for an append. One that never
// drains (a saturated consumer's queue, a signal that always has a
// waiter) would otherwise drag an ever-longer dead prefix behind its
// head: once the slice is full and at least half of it is dead, the live
// items slide down to the start — amortised O(1), order unchanged.
func makeRoom[T any](s []T, head int) ([]T, int) {
	if head > 0 && len(s) == cap(s) && 2*head >= len(s) {
		n := copy(s, s[head:])
		clear(s[n:]) // release the references
		return s[:n], 0
	}
	return s, head
}

// signal is a condition-variable-like wakeup primitive. Processes block on
// it with Wait; any simulation code (another process or an engine callback)
// releases them with Broadcast or Pulse. Waiters are released in FIFO
// order, preserving determinism.
//
// As with condition variables, Wait returning does not by itself imply that
// the awaited predicate holds: callers re-check in a loop.
type signal struct {
	e       *Engine
	label   string
	waiters []*Proc
	head    int
}

// SetLabel names the signal for deadlock reports: a process found
// blocked on it is reported as "name (waiting on label)". Callers on
// reused rendezvous slots may relabel per operation; assigning a
// constant string costs nothing.
func (s *signal) SetLabel(label string) { s.label = label }

// Wait blocks p until the signal is pulsed or broadcast.
func (s *signal) Wait(p *Proc) {
	s.Enlist(p)
	p.park(stateBlocked)
}

// Enlist is Wait up to the park: p joins the tail of the wait list. It is
// for a Stepper, whose Step enlists its process and returns Block.
func (s *signal) Enlist(p *Proc) {
	s.waiters, s.head = makeRoom(s.waiters, s.head)
	s.waiters = append(s.waiters, p)
	p.waitOn = s
}

// Broadcast wakes every waiting process. The wakeups are delivered at the
// current virtual time, after any events already scheduled for this
// instant.
func (s *signal) Broadcast() {
	// A wakeup only schedules a resume event, so no new waiter can
	// appear while this loop runs (the engine is serial).
	for _, w := range s.waiters[s.head:] {
		s.e.scheduleResume(s.e.now, w)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
	s.head = 0
}

// Pulse wakes the longest-waiting process, if any.
func (s *signal) Pulse() {
	if s.head == len(s.waiters) {
		return
	}
	w := s.waiters[s.head]
	s.waiters[s.head] = nil
	s.head++
	if s.head == len(s.waiters) {
		s.waiters = s.waiters[:0]
		s.head = 0
	}
	s.e.scheduleResume(s.e.now, w)
}

// Event is a one-shot latch, the analogue of a Win32 manual-reset event:
// processes Wait until Set fires, after which Wait returns immediately
// until Reset. Millipage's faulting threads block on an Event while their
// request is serviced.
type Event struct {
	set bool
	sig signal
}

// NewEvent returns an unset event bound to e.
func NewEvent(e *Engine) *Event { return &Event{sig: signal{e: e}} }

// SetLabel names the event for deadlock reports.
func (ev *Event) SetLabel(label string) { ev.sig.SetLabel(label) }

// Enlist registers p to be woken by Set, without parking it (see
// signal.Enlist); the caller has found the event unset.
func (ev *Event) Enlist(p *Proc) { ev.sig.Enlist(p) }

// Set fires the event, releasing all current and future waiters. Setting
// a set event finds no waiter to release.
func (ev *Event) Set() {
	ev.set = true
	ev.sig.Broadcast()
}

// Reset returns the event to the unset state.
func (ev *Event) Reset() { ev.set = false }

// IsSet reports whether the event is currently set.
func (ev *Event) IsSet() bool { return ev.set }

// Queue is an unbounded deterministic FIFO mailbox. Put never blocks; Get
// blocks the calling process until an item is available. Concurrent
// getters are served in arrival order.
type Queue[T any] struct {
	items []T
	head  int
	sig   signal
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{sig: signal{e: e}} }

// Reserve has an empty queue fill buf's capacity before it first grows:
// a caller making many queues can carve them out of one allocation.
func (q *Queue[T]) Reserve(buf []T) { q.items = buf[:0] }

// Put appends v and wakes one waiting getter. It may be called from
// process context or an engine callback.
func (q *Queue[T]) Put(v T) {
	q.items, q.head = makeRoom(q.items, q.head)
	q.items = append(q.items, v)
	q.sig.Pulse()
}

// Get removes and returns the oldest item, blocking p while the queue is
// empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.head == len(q.items) {
		q.sig.Wait(p)
	}
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release the reference
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// Enlist registers p to be woken by the next Put, without parking it (see
// signal.Enlist); the caller has found the queue empty with TryGet.
func (q *Queue[T]) Enlist(p *Proc) { q.sig.Enlist(p) }

// TryGet removes and returns the oldest item without blocking. ok is false
// if the queue is empty.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	v = q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }
