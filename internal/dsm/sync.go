package dsm

import "fmt"

// Link is what a header embeds to wait in a FIFO. A pooled header has one
// owner (DESIGN.md §6), so it waits in at most one queue at a time, and
// parking it there allocates nothing.
type Link struct{ next *Msg }

// FIFO is a queue threaded through its headers' Links: a directory
// entry's, a lock's or a home's waiting requests.
type FIFO struct{ head, tail *Msg }

// Peek returns the oldest header, or nil when nothing is queued.
func (q *FIFO) Peek() *Msg { return q.head }

// Push appends v, which waits in no other queue.
func (q *FIFO) Push(v *Msg) {
	if q.head == nil {
		q.head = v
	} else {
		q.tail.next = v
	}
	q.tail = v
}

// Pop removes the oldest header and returns it unlinked, or nil.
func (q *FIFO) Pop() (v *Msg) {
	if v = q.head; v != nil {
		q.head, v.next = v.next, nil
	}
	return v
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
	queue  FIFO
}

// Acquire grants lock m.LockID to m.From immediately (true) or queues m
// behind the current holder (false); grants are FIFO.
func (l *LockService) Acquire(m *Msg) bool {
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
func (l *LockService) Release(id, from int) (next *Msg, err error) {
	ls := l.locks[id]
	switch {
	case ls == nil || !ls.held:
		return nil, fmt.Errorf("unlock of free lock %d", id)
	case ls.holder != from:
		return nil, fmt.Errorf("unlock of lock %d, which host %d holds", id, ls.holder)
	}
	if next = ls.queue.Pop(); next == nil {
		ls.held = false
		return nil, nil
	}
	ls.holder = next.From
	l.Acquisitions++
	return next, nil
}
