package dsm

import (
	"testing"

	"millipage/internal/sim"
	"millipage/internal/vm"
)

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
			s := newSys(t, New, Options{Hosts: n, ThreadsPerHost: tph, SharedSize: vm.PageSize})
			headers := n * tph // live at once when the root completes: every thread's and every node's group
			for _, h := range s.hosts {
				if h.expect > 0 {
					headers++
				}
			}
			arrived := 0
			run(t, s, func(th *Thread) {
				for ep := 1; ep <= 3; ep++ {
					th.Compute(sim.Duration(th.ID*37%101+ep*13) * sim.Microsecond)
					arrived++
					th.Barrier()
					if arrived < ep*n*tph {
						t.Errorf("n=%d tph=%d: thread %d left barrier %d after %d arrivals", n, tph, th.ID, ep, arrived)
					}
				}
			})
			if e := s.Totals().BarrierEpisodes; e != 3 {
				t.Errorf("n=%d tph=%d: %d episodes, want 3", n, tph, e)
			}
			if pooled := len(s.freePM.free); pooled != headers {
				t.Errorf("n=%d tph=%d: %d headers back in the pool, want %d", n, tph, pooled, headers)
			}
		}
	}
}
