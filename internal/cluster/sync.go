package cluster

import "fmt"

// FIFO is a head-indexed queue. Pop advances a head index instead of
// re-slicing away the front: the q = q[1:] pattern sheds the array's
// front capacity, so a queue that cycles under load re-allocates on
// every append. The backing array is reset (and references released)
// once drained.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len reports the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Push appends v.
func (q *FIFO[T]) Push(v T) { q.items = append(q.items, v) }

// Peek returns the oldest item without removing it; ok is false when empty.
func (q *FIFO[T]) Peek() (v T, ok bool) {
	if q.head < len(q.items) {
		v, ok = q.items[q.head], true
	}
	return v, ok
}

// Pop removes and returns the oldest item; ok is false when empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if v, ok = q.Peek(); ok {
		var zero T
		q.items[q.head] = zero // drop the reference for GC
		if q.head++; q.head == len(q.items) {
			q.items, q.head = q.items[:0], 0
		}
	}
	return v, ok
}

// LockService is the coordinator's FIFO lock table. The zero value is
// an empty table.
type LockService struct {
	locks map[int]*lockState
	slab  []lockState // records not yet handed out: one allocation serves 64 lock ids

	Acquisitions uint64 // grants handed out (immediate and queued)
}

type lockState struct {
	held   bool
	holder int // the host the lock was granted to, while held
	queue  FIFO[*SvcMsg]
}

// Acquire grants lock m.LockID to m.From immediately (true) or queues m
// behind the current holder (false); grants are FIFO.
func (l *LockService) Acquire(m *SvcMsg) bool {
	ls := l.locks[m.LockID]
	if ls == nil {
		if l.locks == nil {
			l.locks = make(map[int]*lockState)
		}
		if len(l.slab) == 0 {
			l.slab = make([]lockState, 64)
		}
		ls, l.slab = &l.slab[0], l.slab[1:]
		l.locks[m.LockID] = ls
	}
	if ls.held {
		ls.queue.Push(m)
		return false
	}
	ls.held, ls.holder = true, m.From
	l.Acquisitions++
	return true
}

// Release frees lock id on behalf of host from, or passes it to the next
// queued waiter, whose request it returns. Releasing a lock that is free
// or held by another host is the application's error and changes
// nothing.
func (l *LockService) Release(id, from int) (next *SvcMsg, err error) {
	ls := l.locks[id]
	switch {
	case ls == nil || !ls.held:
		return nil, fmt.Errorf("unlock of free lock %d", id)
	case ls.holder != from:
		return nil, fmt.Errorf("unlock of lock %d, which host %d holds", id, ls.holder)
	}
	next, ok := ls.queue.Pop()
	if !ok {
		ls.held = false
		return nil, nil
	}
	ls.holder = next.From
	l.Acquisitions++
	return next, nil
}
