package apps

import (
	"math"
	"math/rand"

	millipage "millipage"
	"millipage/internal/sim"
)

// TSP: the TreadMarks branch-and-bound traveling salesperson, 19 cities,
// recursion level 12. Partial tours with more than 12 cities remaining
// are split into child tours on a shared work stack; deeper tours are
// solved sequentially. The paper extracts the tour array out of the
// global structure and allocates each 148-byte TourElement separately so
// a tour is the sharing unit (27 views: floor(4096/148), Table 2), and
// changes the minimum-bound update to push readable copies to all hosts
// (the Push API) because the bound "is frequently read through an
// unprotected section".

const (
	tspCities    = 19
	tspRecursion = 12 // remaining-city threshold for sequential solving
	tspSplitMax  = 3  // tours split on the shared stack only above this depth
	tspTourBytes = 148
	tspSlots     = 5430 // 785 KB / 148 B, the paper's shared footprint

	// Tour element layout.
	tLen   = 0 // u32 accumulated length
	tCount = 4 // u32 cities so far
	tPath  = 8 // u32 per city

	tspQLock   = 1 << 21
	tspMinLock = 1<<21 + 1
)

// RunTSP executes the branch-and-bound search on p.Hosts hosts.
func RunTSP(p Params) (Result, error) {
	p = p.withDefaults()
	cities := tspCities
	if p.Scale < 1.0 {
		cities = scaled(tspCities, p.Scale, 8)
	}

	dist := tspDistances(cities, p.Seed)
	bnd := makeBounds(dist)

	// 27 views = floor(4096/148): Table 2's value.
	cluster, err := p.newCluster(2<<20, 27, 0)
	if err != nil {
		return Result{}, err
	}

	tourAddr := make([]millipage.Addr, tspSlots)
	var stackAddr, minAddr millipage.Addr
	var timed sim.Duration
	var check float64

	report, err := cluster.Run(func(w *millipage.Worker) {
		if w.ThreadID() == 0 {
			for i := range tourAddr {
				tourAddr[i] = w.Malloc(tspTourBytes)
			}
			// Stack layout: [0]=top, [1]=freeTop, [2]=active,
			// [3...]=work entries, then free-slot entries.
			stackAddr = w.Malloc(4 * (3 + 2*tspSlots))
			minAddr = w.Malloc(64)

			// Initial bound: plain nearest-neighbor tour (the classic
			// benchmark's bound; intentionally loose enough to leave a
			// substantial parallel search).
			w.WriteU32(minAddr, tspGreedy(dist, false))
			w.Push(minAddr)

			// All slots except slot 0 start free.
			w.WriteU32(stackAddr+0, 0)
			w.WriteU32(stackAddr+8, 0)
			free := 0
			for s := tspSlots - 1; s >= 1; s-- {
				w.WriteU32(stackAddr+uint64(4*(3+tspSlots+free)), uint32(s))
				free++
			}
			w.WriteU32(stackAddr+4, uint32(free))

			// Root tour: city 0.
			w.WriteU32(tourAddr[0]+tLen, 0)
			w.WriteU32(tourAddr[0]+tCount, 1)
			w.WriteU32(tourAddr[0]+tPath, 0)
			pushWork(w, stackAddr, 0)
		}
		w.Barrier() // barrier 1 of 3
		w.ResetStats()
		start := w.Now()

		path := make([]int, cities)
		for {
			// Peek without the lock: sequential consistency makes the
			// stale-read window benign, and it keeps lock traffic at the
			// paper's scale (Table 2: 681 lock operations in all).
			if w.ReadU32(stackAddr) == 0 {
				w.Lock(tspQLock)
				top := w.ReadU32(stackAddr)
				active := w.ReadU32(stackAddr + 8)
				w.Unlock(tspQLock)
				if top == 0 {
					if active == 0 {
						break
					}
					w.Compute(500 * sim.Microsecond) // idle poll
					continue
				}
			}
			w.Lock(tspQLock)
			top := w.ReadU32(stackAddr)
			if top == 0 {
				w.Unlock(tspQLock)
				continue
			}
			slot := w.ReadU32(stackAddr + uint64(4*(3+top-1)))
			w.WriteU32(stackAddr, top-1)
			w.WriteU32(stackAddr+8, w.ReadU32(stackAddr+8)+1)
			w.Unlock(tspQLock)

			// Read the tour element.
			length := w.ReadU32(tourAddr[slot] + tLen)
			count := int(w.ReadU32(tourAddr[slot] + tCount))
			visited := uint32(0)
			for i := 0; i < count; i++ {
				path[i] = int(w.ReadU32(tourAddr[slot] + tPath + uint64(4*i)))
				visited |= 1 << path[i]
			}

			if count < tspSplitMax && cities-count > tspRecursion {
				tspExpand(w, bnd, stackAddr, minAddr, tourAddr, path, count, length, visited, cities)
			} else {
				tspSolve(w, bnd, minAddr, path, count, length, visited, cities)
			}

			w.Lock(tspQLock)
			w.WriteU32(stackAddr+8, w.ReadU32(stackAddr+8)-1)
			w.Unlock(tspQLock)
		}
		w.Barrier() // barrier 2: search complete
		if w.ThreadID() == 0 {
			timed = w.Now() - start
			check = float64(w.ReadU32(minAddr))
		}
		w.Barrier() // barrier 3: Table 2's count
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Name: "TSP", Hosts: p.Hosts, Report: report, Timed: timed, Check: check, Checked: check > 0, Engine: EngineShape{Counters: cluster.EngineCounters()}}, nil
}

// pushWork pushes a tour slot on the shared work stack. Caller holds (or
// is initializing before) the queue lock.
func pushWork(w *millipage.Worker, stackAddr millipage.Addr, slot uint32) {
	top := w.ReadU32(stackAddr)
	w.WriteU32(stackAddr+uint64(4*(3+top)), slot)
	w.WriteU32(stackAddr, top+1)
}

// allocSlot takes a tour slot from the free stack; caller holds the lock.
// Slots are not recycled: the shallow split depth bounds the number of
// tours ever queued well below the pool size.
func allocSlot(w *millipage.Worker, stackAddr millipage.Addr) (uint32, bool) {
	freeTop := w.ReadU32(stackAddr + 4)
	if freeTop == 0 {
		return 0, false
	}
	s := w.ReadU32(stackAddr + uint64(4*(3+tspSlots+freeTop-1)))
	w.WriteU32(stackAddr+4, freeTop-1)
	return s, true
}

// tspExpand splits a shallow tour into child tours on the work stack,
// nearest city first so the best children are explored soonest.
func tspExpand(w *millipage.Worker, bnd *bounds,
	stackAddr, minAddr millipage.Addr, tourAddr []millipage.Addr,
	path []int, count int, length, visited uint32, cities int) {

	dist := bnd.dist
	last := path[count-1]
	min := w.ReadU32(minAddr)
	w.Compute(sim.Duration(cities) * tspEdge)
	for _, c := range bnd.order[last] {
		if visited&(1<<c) != 0 {
			continue
		}
		newLen := length + dist[last][c]
		if 2*newLen+bnd.lowerBound2(visited|1<<c, c, cities) >= 2*min {
			continue
		}
		w.Lock(tspQLock)
		slot, ok := allocSlot(w, stackAddr)
		if !ok {
			w.Unlock(tspQLock)
			// Pool exhausted: solve this child in place instead.
			path[count] = c
			tspSolve(w, bnd, minAddr, path, count+1, newLen, visited|1<<c, cities)
			continue
		}
		w.Unlock(tspQLock)

		// Fill the tour element (exclusively ours), then publish it.
		w.WriteU32(tourAddr[slot]+tLen, newLen)
		w.WriteU32(tourAddr[slot]+tCount, uint32(count+1))
		for i := 0; i < count; i++ {
			w.WriteU32(tourAddr[slot]+tPath+uint64(4*i), uint32(path[i]))
		}
		w.WriteU32(tourAddr[slot]+tPath+uint64(4*count), uint32(c))

		w.Lock(tspQLock)
		pushWork(w, stackAddr, slot)
		w.Unlock(tspQLock)
	}
}

// tspSolve finishes a tour sequentially with depth-first branch and
// bound (nearest-first, two-min-edge bound), updating the shared minimum
// when improved.
func tspSolve(w *millipage.Worker, bnd *bounds,
	minAddr millipage.Addr, path []int, count int, length, visited uint32, cities int) {

	dist := bnd.dist
	min := w.ReadU32(minAddr)
	nodes := 0
	best := min
	var dfs func(last int, count int, length, visited uint32)
	dfs = func(last int, count int, length, visited uint32) {
		nodes++
		if count == cities {
			total := length + dist[last][path[0]]
			if total < best {
				best = total
			}
			return
		}
		if 2*length+bnd.lowerBound2(visited, last, cities) >= 2*best {
			return
		}
		for _, c := range bnd.order[last] {
			if visited&(1<<c) != 0 {
				continue
			}
			nl := length + dist[last][c]
			if 2*nl+bnd.lowerBound2(visited|1<<c, c, cities) >= 2*best {
				continue
			}
			path[count] = c
			dfs(c, count+1, nl, visited|1<<c)
		}
	}
	dfs(path[count-1], count, length, visited)
	w.Compute(sim.Duration(nodes*cities) * tspEdge)

	if best < min {
		// The paper's modification: update under the lock, then push
		// readable copies to all hosts.
		w.Lock(tspMinLock)
		if best < w.ReadU32(minAddr) {
			w.WriteU32(minAddr, best)
			w.Push(minAddr)
		}
		w.Unlock(tspMinLock)
	}
}

// bounds holds the precomputed pruning machinery: per-city smallest and
// two-smallest-edge sums (the classic half-degree lower bound) and
// nearest-first neighbor orderings.
type bounds struct {
	minE   []uint32 // smallest incident edge per city
	twoSum []uint32 // sum of the two smallest incident edges
	order  [][]int  // cities sorted by distance, per city
	dist   [][]uint32
}

func makeBounds(dist [][]uint32) *bounds {
	n := len(dist)
	b := &bounds{
		minE:   make([]uint32, n),
		twoSum: make([]uint32, n),
		order:  make([][]int, n),
		dist:   dist,
	}
	for c := 0; c < n; c++ {
		e1, e2 := uint32(math.MaxUint32), uint32(math.MaxUint32)
		for d := 0; d < n; d++ {
			if d == c {
				continue
			}
			if v := dist[c][d]; v < e1 {
				e1, e2 = v, e1
			} else if v < e2 {
				e2 = v
			}
		}
		b.minE[c] = e1
		b.twoSum[c] = e1 + e2
		ord := make([]int, 0, n-1)
		for d := 0; d < n; d++ {
			if d != c {
				ord = append(ord, d)
			}
		}
		for i := 1; i < len(ord); i++ { // insertion sort by distance
			for j := i; j > 0 && dist[c][ord[j]] < dist[c][ord[j-1]]; j-- {
				ord[j], ord[j-1] = ord[j-1], ord[j]
			}
		}
		b.order[c] = ord
	}
	return b
}

// lowerBound2 returns twice the admissible bound on the remaining path
// from last through every unvisited city back to city 0: each unvisited
// city contributes its two cheapest edges, the endpoints one each.
func (b *bounds) lowerBound2(visited uint32, last, cities int) uint32 {
	lb2 := b.minE[last] + b.minE[0]
	for c := 0; c < cities; c++ {
		if visited&(1<<c) == 0 {
			lb2 += b.twoSum[c]
		}
	}
	return lb2
}

// tspGreedy returns the length of a nearest-neighbor tour, optionally
// improved by 2-opt. The search uses the plain tour as its initial bound;
// the 2-opt variant is used by tests as a tighter reference value.
func tspGreedy(dist [][]uint32, twoOpt bool) uint32 {
	n := len(dist)
	visited := make([]bool, n)
	visited[0] = true
	tour := make([]int, 1, n)
	cur := 0
	for step := 1; step < n; step++ {
		best, bd := -1, uint32(math.MaxUint32)
		for c := 0; c < n; c++ {
			if !visited[c] && dist[cur][c] < bd {
				best, bd = c, dist[cur][c]
			}
		}
		visited[best] = true
		tour = append(tour, best)
		cur = best
	}
	// 2-opt until no improving exchange remains.
	improved := twoOpt
	for improved {
		improved = false
		for i := 0; i < n-1; i++ {
			for j := i + 2; j < n; j++ {
				a, b := tour[i], tour[i+1]
				c, d := tour[j], tour[(j+1)%n]
				if a == d {
					continue
				}
				if dist[a][c]+dist[b][d] < dist[a][b]+dist[c][d] {
					for lo, hi := i+1, j; lo < hi; lo, hi = lo+1, hi-1 {
						tour[lo], tour[hi] = tour[hi], tour[lo]
					}
					improved = true
				}
			}
		}
	}
	total := uint32(0)
	for i := 0; i < n; i++ {
		total += dist[tour[i]][tour[(i+1)%n]]
	}
	return total
}

// tspDistances builds a deterministic symmetric instance with uniform
// random edge weights. Non-metric instances keep the branch-and-bound
// search substantial (Euclidean ones collapse under the two-min-edge
// bound), matching the long-running searches of the original benchmark.
func tspDistances(n int, seed int64) [][]uint32 {
	rng := rand.New(rand.NewSource(seed * 7919))
	d := make([][]uint32, n)
	for i := range d {
		d[i] = make([]uint32, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := uint32(rng.Intn(900) + 100)
			d[i][j], d[j][i] = w, w
		}
	}
	return d
}
