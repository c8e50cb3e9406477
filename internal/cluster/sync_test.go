package cluster

import (
	"strings"
	"testing"

	"millipage/internal/sim"
	"millipage/internal/vm"
)

// item is a record that can wait in a FIFO.
type item struct {
	Link[item]
	v int
}

func TestFIFOOrderAndDrainReset(t *testing.T) {
	var q FIFO[item, *item]
	if q.Peek() != nil || q.Pop() != nil {
		t.Fatal("empty queue returned a record")
	}
	items := make([]item, 13)
	for i := 0; i < 5; i++ {
		items[i].v = i
		q.Push(&items[i])
	}
	for i := 0; i < 5; i++ {
		if v := q.Pop(); v == nil || v.v != i {
			t.Fatalf("Pop #%d = %v; want %d", i, v, i)
		}
	}
	if q.Peek() != nil {
		t.Fatal("drained queue not empty")
	}
	// Interleaved push/pop keeps FIFO order, a drained queue restarting at
	// its next Push.
	items[10].v, items[11].v, items[12].v = 10, 11, 12
	q.Push(&items[10])
	q.Push(&items[11])
	if v := q.Pop(); v.v != 10 {
		t.Fatalf("interleaved Pop = %d, want 10", v.v)
	}
	q.Push(&items[12])
	if v := q.Peek(); v == nil || v.v != 11 {
		t.Fatalf("Peek = %v; want 11", v)
	}
	for want := 11; want <= 12; want++ {
		if v := q.Pop(); v == nil || v.v != want {
			t.Fatalf("Pop = %v; want %d", v, want)
		}
	}
}

// TestFIFOReleasesReferences: a popped record leaves unlinked, so it can
// wait in a queue again and pins nothing behind it, and queueing records
// allocates nothing.
func TestFIFOReleasesReferences(t *testing.T) {
	var q FIFO[item, *item]
	x, y := new(item), new(item)
	q.Push(x)
	q.Push(y)
	if v := q.Pop(); v != x || x.next != nil {
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

// TestBarrierTreeShape: the barrier tree is fan-in 8 and heap-ordered, so
// up to 9 hosts it is the star, every thread arriving at the Coordinator,
// which collects them all; every host reaches the root within three hops
// up to 256 hosts, and each node expects exactly what its threads and its
// children send it an episode: a thread's arrival, or one group from a
// child that has children of its own.
func TestBarrierTreeShape(t *testing.T) {
	ns := []int{64, 256}
	for n := 1; n <= 40; n++ {
		ns = append(ns, n)
	}
	type place struct{ node, parent, expect int }
	spots := map[[3]int]place{ // {n, tph, id}: worked by hand
		{8, 1, 0}: {0, -1, 8}, {8, 2, 7}: {0, 0, 0}, {9, 2, 0}: {0, -1, 18}, {10, 1, 0}: {0, -1, 9}, {10, 1, 1}: {1, 0, 2},
		{20, 1, 0}: {0, -1, 9}, {20, 1, 1}: {1, 0, 9}, {20, 2, 2}: {2, 0, 8}, {20, 1, 3}: {0, 0, 0}, {20, 1, 19}: {2, 2, 0},
		{64, 1, 0}: {0, -1, 9}, {64, 1, 7}: {7, 0, 8}, {64, 1, 8}: {0, 0, 0}, {64, 2, 9}: {1, 1, 0},
		{256, 2, 0}: {0, -1, 10}, {256, 1, 31}: {31, 3, 8}, {256, 1, 32}: {3, 3, 0}, {256, 2, 255}: {31, 31, 0},
	}
	for _, tph := range []int{1, 2} {
		for _, n := range ns {
			got := make([]int, n) // what each host is sent an episode
			kids := make([]int, n)
			places := make([]place, n)
			for id := range places {
				node, parent, expect := barrierTree(id, n, tph)
				places[id] = place{node, parent, expect}
				if want, ok := spots[[3]int{n, tph, id}]; ok && places[id] != want {
					t.Errorf("n=%d tph=%d host %d: %+v, worked by hand %+v", n, tph, id, places[id], want)
				}
				got[node] += tph
				if id > 0 {
					kids[parent]++
					if expect > 0 {
						got[parent]++
					}
				}
				want := -1 // heap order
				if id > 0 {
					want = (id - 1) / 8
				}
				if parent != want {
					t.Errorf("n=%d host %d: parent %d, want %d", n, id, parent, want)
				}
			}
			for id, pl := range places {
				if inner := id == 0 || kids[id] > 0; inner != (pl.expect > 0) || inner != (pl.node == id) {
					t.Errorf("n=%d tph=%d host %d: %+v with %d children", n, tph, id, pl, kids[id])
				}
				if pl.expect != got[id] {
					t.Errorf("n=%d tph=%d host %d: expects %d arrivals, is sent %d", n, tph, id, pl.expect, got[id])
				}
				hops := 0
				for h := id; h != 0; h = places[h].parent {
					hops++
				}
				if star := n <= fanIn+1; star && hops > 1 || !star && hops > 3 {
					t.Errorf("n=%d host %d: %d hops from the root", n, id, hops)
				}
			}
		}
	}
}

// TestBarrierTreeEpisodes: as the star and as a tree, with one and two
// threads a host, no thread leaves a barrier before the last has arrived,
// each episode is counted once, and every header is back in the pool.
func TestBarrierTreeEpisodes(t *testing.T) {
	for _, n := range []int{fanIn + 1, 40} {
		for _, tph := range []int{1, 2} {
			rt, err := New("test", Options{Hosts: n, ThreadsPerHost: tph, SharedSize: vm.PageSize})
			if err != nil {
				t.Fatal(err)
			}
			headers := n * tph // live at once when the root completes: every thread's and every node's group
			for i := 0; i < n; i++ {
				if h := rt.NewHost(vm.NewAddressSpace(), nopHandler{}, nil); h.expect > 0 {
					headers++
				}
			}
			arrived := 0
			err = rt.Run(func(ct *Thread) func() {
				return func() {
					for ep := 1; ep <= 3; ep++ {
						ct.Compute(sim.Duration(ct.ID*37%101+ep*13) * sim.Microsecond)
						arrived++
						ct.Barrier()
						if arrived < ep*n*tph {
							t.Errorf("n=%d tph=%d: thread %d left barrier %d after %d arrivals", n, tph, ct.ID, ep, arrived)
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if e := rt.Totals().BarrierEpisodes; e != 3 {
				t.Errorf("n=%d tph=%d: %d episodes, want 3", n, tph, e)
			}
			if pooled := len(rt.svc.free.free); pooled != headers {
				t.Errorf("n=%d tph=%d: %d headers back in the pool, want %d", n, tph, pooled, headers)
			}
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
