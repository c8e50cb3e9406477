package dsm

// Pool is a LIFO freelist of recycled records — protocol headers,
// service messages, interval records. Get hands out a recycled record as it
// was put back (the caller initializes it) or a new one when the list is
// empty. Under -tags invariants a record that embeds PoolState is marked
// while it sits here and the pool counts what it made (invariants_on.go).
type Pool[T any] struct {
	made poolCount
	free []*T
}

func (pl *Pool[T]) Get() *T {
	if n := len(pl.free); n > 0 {
		v := pl.free[n-1]
		pl.free = pl.free[:n-1]
		reuse(v)
		return v
	}
	pl.made.inc()
	return new(T)
}

func (pl *Pool[T]) Put(v *T) {
	retire(v)
	pl.free = append(pl.free, v)
}

// SlicePool is a freelist of slices of mixed capacity, bytes or minipage
// ids: snapshot buffers, twins.
type SlicePool[T byte | int] struct{ free [][]T }

// Get returns a slice of length n with undefined contents, reusing the
// most recently recycled one that is large enough.
func (sp *SlicePool[T]) Get(n int) []T {
	for i := len(sp.free) - 1; i >= 0; i-- {
		if cap(sp.free[i]) >= n {
			s := sp.free[i][:n]
			last := len(sp.free) - 1
			sp.free[i] = sp.free[last]
			sp.free = sp.free[:last]
			checkPoison(s[:cap(s)])
			return s
		}
	}
	return make([]T, n)
}

func (sp *SlicePool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	retireSlice(s, sp.free)
	sp.free = append(sp.free, s)
}
