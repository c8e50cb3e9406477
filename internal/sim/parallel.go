package sim

import "fmt"

// Conservative windowed execution of a sharded engine.
//
// The correctness argument is the classic conservative-PDES one,
// specialized to this engine's contract:
//
//  1. Let m be the earliest pending event time across all shards at a
//     barrier, and L the declared lookahead. The window horizon is
//     H = m + L.
//  2. Every event a shard executes inside the window fires at some time
//     t with m <= t < H (nextProc never pops at or past the horizon,
//     and the Sleep fast path never crosses it).
//  3. A cross-shard effect can only be produced by Shard.Post, whose
//     contract (enforced below) is at >= t + L >= m + L = H. So nothing
//     produced during the window can land inside it: each shard's
//     sub-horizon future is fully determined by its own calendar, and
//     the shards may execute concurrently without coordination.
//  4. At the barrier the buffered cross-shard events are merged in
//     (at, source shard, source seq) order, which is a pure function of
//     the shards' individual executions — themselves pure functions of
//     (program, seed, shard count) by induction. Worker count and
//     goroutine interleaving therefore never influence the outcome.
//
// Same-instant cross-shard ties (two shards posting to one destination
// at the same virtual time) are broken by source shard id, then source
// sequence — the deterministic (at, seq, shard) rule the merge sort
// below implements via the destination's seq assignment order.

// runSharded is Run's body for a multi-shard engine.
func (e *Engine) runSharded() error {
	if e.lookahead <= 0 {
		panic("sim: sharded Run without a positive lookahead (transport must call SetLookahead)")
	}
	defer e.stopPool()
	active := make([]*Shard, 0, len(e.shards))
	nexts := make([]Time, len(e.shards))
	for {
		// Barrier state, in one pass: each shard's earliest pending event,
		// the smallest such time across shards, and the live foreground
		// count.
		min1 := maxTime
		totalFG := 0
		for i, s := range e.shards {
			at := s.cal.minAt()
			nexts[i] = at
			if at < min1 {
				min1 = at
			}
			totalFG += s.liveFG
		}
		if e.stopped.Load() || totalFG == 0 {
			e.setFinalNow()
			return nil
		}
		if min1 == maxTime {
			// No events anywhere, processes still live: a global deadlock.
			e.setFinalNow()
			e.finalNow = e.maxShardNow()
			return e.deadlockError()
		}
		e.finalNow = min1
		// One global horizon H = m + L for every shard. A per-shard
		// refinement (shard i running to L past the earliest event of any
		// OTHER shard) is causally safe but lets windows overlap in
		// virtual time, so a shard with a tighter horizon can issue an
		// earlier-sent same-instant message in a LATER window — its
		// arrival would then merge behind a later send, inverting the
		// canonical (at, sent, src, seq) order the sequential engine
		// produces. A single horizon keeps successive windows disjoint and
		// ordered in virtual time, which makes cross-barrier collisions
		// merge in send order for free. Shards with nothing below H sit
		// the window out.
		h := min1.Add(e.lookahead)
		active = active[:0]
		for i, s := range e.shards {
			if nexts[i] < h {
				s.horizon = h
				active = append(active, s)
			}
		}
		e.windows++
		if len(active) > e.maxActive {
			e.maxActive = len(active)
		}
		e.runShards(active)
		e.mergeOutboxes(active)
	}
}

// runShards executes the active shards' windows, across up to
// e.workers goroutines. Shards are independent inside a window (see the
// package comment above), so the split of shards over goroutines is
// invisible to the simulation. Workers come from the persistent pool;
// the barrier goroutine itself steals too, so w goroutines total work
// the window with only w-1 channel handoffs. A panic out of any shard
// (a process's, re-raised by its carrier's resume on whichever worker
// drove it) is re-raised here, on Run's goroutine, once the window's
// other workers have come to rest.
func (e *Engine) runShards(active []*Shard) {
	w := e.workers
	if w > len(active) {
		w = len(active)
	}
	if w <= 1 {
		for _, s := range active {
			s.runWindow()
		}
		return
	}
	e.growPool(w - 1)
	e.parActive = active
	e.parNext.Store(0)
	e.parWG.Add(w)
	for i := 0; i < w-1; i++ {
		e.parWork <- struct{}{}
	}
	e.workWindow()
	e.parWG.Wait()
	if r := e.parPanic.Load(); r != nil {
		panic(*r)
	}
}

// workWindow is one goroutine's share of the current window.
func (e *Engine) workWindow() {
	defer e.parWG.Done()
	defer func() {
		if r := recover(); r != nil {
			v := r // escapes; declared here so only a panic pays for it
			e.parPanic.CompareAndSwap(nil, &v)
		}
	}()
	e.stealShards(e.parActive)
}

// growPool brings the persistent worker pool up to n goroutines. Each
// worker parks on parWork; one token means "steal from the current
// window until it drains". The channel send happens after the barrier
// writes parActive and before the worker reads it, and parWG.Wait
// happens after the worker's last steal — those two edges are the only
// synchronization a window needs.
func (e *Engine) growPool(n int) {
	if e.parWork == nil {
		e.parWork = make(chan struct{})
	}
	work := e.parWork // a worker may first run after stopPool has cleared the field
	for ; e.poolSize < n; e.poolSize++ {
		go func() {
			for range work {
				e.workWindow()
			}
		}()
	}
}

// stealShards runs window work off the shared cursor until none is left.
func (e *Engine) stealShards(active []*Shard) {
	for {
		i := int(e.parNext.Add(1)) - 1
		if i >= len(active) {
			return
		}
		active[i].runWindow()
	}
}

// stopPool dismisses the persistent workers (no-op if none started).
func (e *Engine) stopPool() {
	if e.parWork != nil {
		close(e.parWork)
		e.parWork = nil
		e.poolSize = 0
	}
}

// mergeOutboxes moves every cross-shard event buffered during the
// window into its destination calendar, in deterministic
// (at, send time, source shard, source seq) order, and verifies the
// lookahead contract per event: an arrival below its own send time plus
// the declared floor means the transport lied about its latency.
// Only active shards executed, so only they can hold outbox entries.
func (e *Engine) mergeOutboxes(active []*Shard) {
	xs := e.merge[:0]
	for _, s := range active {
		xs = append(xs, s.outbox...)
		clearXevs(s.outbox)
		s.outbox = s.outbox[:0]
	}
	sortXevs(xs)
	for i := range xs {
		x := &xs[i]
		if x.at < x.sent.Add(e.lookahead) {
			panic(fmt.Sprintf(
				"sim: lookahead violation: shard %d posted a cross-shard event at %v, only %v after its send at %v (declared lookahead %v is larger than the transport's real latency floor)",
				x.src, x.at, x.at.Sub(x.sent), x.sent, e.lookahead))
		}
		x.dst.scheduleFn(x.at, x.fn, x.arg)
	}
	clearXevs(xs)
	e.merge = xs[:0]
}

// xevBefore is the canonical cross-shard merge order. Arrival time
// first; at the same arrival instant, send time — the sequential engine
// inserts deliveries at Post time, so later sends colliding with
// earlier ones sort after them there too. Only sends at the same
// instant on different shards have no sequential-mode order to
// reproduce; those fall to the (shard, seq) rule.
func xevBefore(a, b *xev) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sent != b.sent {
		return a.sent < b.sent
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// sortXevs is an insertion sort: a window's merged outbox is small (the
// cross-shard messages of one lookahead-wide slice, usually a handful),
// and unlike sort.Slice this allocates nothing — the merge barrier runs
// tens of thousands of times per simulation, so a per-call closure and
// reflect swapper would dominate the engine's allocation profile.
func sortXevs(xs []xev) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xevBefore(&xs[j], &xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// clearXevs zeroes the slice so recycled outbox capacity does not pin
// delivered event payloads.
func clearXevs(xs []xev) {
	for i := range xs {
		xs[i] = xev{}
	}
}

// setFinalNow records the run's final virtual time: the latest instant
// at which any shard's foreground drained (shards that never had
// foreground work contribute nothing).
func (e *Engine) setFinalNow() {
	for _, s := range e.shards {
		if s.fgEnd > e.finalNow {
			e.finalNow = s.fgEnd
		}
	}
}

// maxShardNow returns the latest shard clock, the natural "current
// time" of a stuck sharded run.
func (e *Engine) maxShardNow() Time {
	t := Time(0)
	for _, s := range e.shards {
		if s.now > t {
			t = s.now
		}
	}
	return t
}
