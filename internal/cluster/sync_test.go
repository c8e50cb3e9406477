// Synchronization records: the FIFO that directory entries and locks
// queue their requests in, and the coordinator's lock table.
package cluster_test

import (
	"strings"
	"testing"

	"millipage/internal/dsm"
)

func TestFIFOOrderAndDrainReset(t *testing.T) {
	var q dsm.FIFO
	if q.Peek() != nil || q.Pop() != nil {
		t.Fatal("empty queue returned a record")
	}
	items := make([]dsm.Msg, 13)
	for i := 0; i < 5; i++ {
		items[i].From = i
		q.Push(&items[i])
	}
	for i := 0; i < 5; i++ {
		if v := q.Pop(); v == nil || v.From != i {
			t.Fatalf("Pop #%d = %v; want %d", i, v, i)
		}
	}
	if q.Peek() != nil {
		t.Fatal("drained queue not empty")
	}
	// Interleaved push/pop keeps FIFO order, a drained queue restarting at
	// its next Push.
	items[10].From, items[11].From, items[12].From = 10, 11, 12
	q.Push(&items[10])
	q.Push(&items[11])
	if v := q.Pop(); v.From != 10 {
		t.Fatalf("interleaved Pop = %d, want 10", v.From)
	}
	q.Push(&items[12])
	if v := q.Peek(); v == nil || v.From != 11 {
		t.Fatalf("Peek = %v; want 11", v)
	}
	for want := 11; want <= 12; want++ {
		if v := q.Pop(); v == nil || v.From != want {
			t.Fatalf("Pop = %v; want %d", v, want)
		}
	}
}

// TestFIFOReleasesReferences: a popped record leaves unlinked, so it can
// wait in a queue again and pins nothing behind it, and queueing records
// allocates nothing.
func TestFIFOReleasesReferences(t *testing.T) {
	var q dsm.FIFO
	x, y := new(dsm.Msg), new(dsm.Msg)
	q.Push(x)
	q.Push(y)
	if v := q.Pop(); v != x {
		t.Fatal("queue lost its record")
	}
	var r dsm.FIFO // x alone: a link to y left behind would queue y too
	if r.Push(x); r.Pop() != x || r.Peek() != nil {
		t.Fatal("popped record still links to its successor")
	}
	if v := q.Pop(); v != y || q.Peek() != nil {
		t.Fatal("queue lost its record")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		q.Push(x)
		q.Push(y)
		q.Pop()
		q.Pop()
	}); allocs != 0 {
		t.Fatalf("Push and Pop allocate %.1f times", allocs)
	}
}

func TestLockServiceFIFOGrants(t *testing.T) {
	var l dsm.LockService
	req := func(id, from int) *dsm.Msg { return &dsm.Msg{LockID: id, From: from} }
	if !l.Acquire(req(7, 0)) {
		t.Fatal("first Acquire not granted immediately")
	}
	b, c := req(7, 1), req(7, 2)
	if l.Acquire(b) || l.Acquire(c) {
		t.Fatal("Acquire of a held lock granted immediately")
	}
	// Another lock id is independent.
	if !l.Acquire(req(8, 3)) {
		t.Fatal("independent lock id not granted")
	}
	// Only the holder may release, and a refused release changes nothing.
	if next, err := l.Release(7, 2); err == nil || next != nil || !strings.Contains(err.Error(), "host 0 holds") {
		t.Fatalf("Release by a waiter = %v, %v; want an error naming holder 0", next, err)
	}
	for from, want := range []*dsm.Msg{b, c, nil} {
		if next, err := l.Release(7, from); err != nil || next != want {
			t.Fatalf("Release by host %d = %v, %v; want %v", from, next, err, want)
		}
	}
	if l.Acquisitions != 4 {
		t.Fatalf("Acquisitions = %d, want 4", l.Acquisitions)
	}
	// Releasing a free lock is the application's error, reported, not a
	// panic here.
	for _, id := range []int{7, 99} {
		if _, err := l.Release(id, 2); err == nil || !strings.Contains(err.Error(), "free lock") {
			t.Fatalf("Release of free lock %d = %v", id, err)
		}
	}
}
