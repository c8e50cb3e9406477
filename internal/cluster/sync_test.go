package cluster

import (
	"strings"
	"testing"
)

func TestFIFOOrderAndDrainReset(t *testing.T) {
	var q FIFO[int]
	if q.Len() != 0 {
		t.Fatalf("empty Len = %d", q.Len())
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	for i := 0; i < 5; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = %d, %v; want %d, true", i, v, ok, i)
		}
	}
	// Fully drained: the backing array must reset so the next cycle
	// reuses it instead of growing.
	if q.head != 0 || len(q.items) != 0 {
		t.Fatalf("drained queue not reset: head=%d len=%d", q.head, len(q.items))
	}
	// Interleaved push/pop keeps FIFO order across the head index.
	q.Push(10)
	q.Push(11)
	if v, _ := q.Pop(); v != 10 {
		t.Fatalf("interleaved Pop = %d, want 10", v)
	}
	q.Push(12)
	for want := 11; want <= 12; want++ {
		if v, ok := q.Pop(); !ok || v != want {
			t.Fatalf("Pop = %d, %v; want %d", v, ok, want)
		}
	}
}

func TestFIFOReleasesReferences(t *testing.T) {
	var q FIFO[*int]
	x := new(int)
	q.Push(x)
	q.Push(new(int))
	q.Pop()
	// The popped slot must be zeroed so the queue does not pin the
	// element for the garbage collector.
	if q.items[0] != nil {
		t.Fatal("popped slot still references the element")
	}
}

func TestBarrierServiceEpisodes(t *testing.T) {
	var b BarrierService
	for ep := 0; ep < 3; ep++ {
		for i := 0; i < 3; i++ {
			arrivals, done := b.Arrive(&SvcMsg{From: 100*ep + i}, 4)
			if done || arrivals != nil {
				t.Fatalf("episode %d: barrier completed after %d arrivals", ep, i+1)
			}
		}
		arrivals, done := b.Arrive(&SvcMsg{From: 100*ep + 3}, 4)
		if !done || len(arrivals) != 4 {
			t.Fatalf("episode %d: done=%v arrivals=%d, want true, 4", ep, done, len(arrivals))
		}
		for i, a := range arrivals {
			if a.From != 100*ep+i {
				t.Fatalf("episode %d: arrival %d = %d (order lost)", ep, i, a.From)
			}
		}
		if b.Episodes != uint64(ep+1) {
			t.Fatalf("episode %d: Episodes=%d", ep, b.Episodes)
		}
	}
}

func TestLockServiceFIFOGrants(t *testing.T) {
	var l LockService
	req := func(id, from int) *SvcMsg { return &SvcMsg{LockID: id, From: from} }
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
	for from, want := range []*SvcMsg{b, c, nil} {
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
