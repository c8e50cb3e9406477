//go:build invariants

package dsm

import "slices"

// Lifecycle invariants for the protocols' freelists, mirroring fastmsg's
// envelope state machine. A pooled header or buffer has one owner at a
// time; the checks below turn the ways of breaking that — using or
// sending a header after recycling it, recycling anything twice, writing
// through a stale pointer while it sits in a freelist — into a panic at
// the spot instead of a silently aliased record.

const Invariants = true // whether the build carries the lifecycle checks

// PoolState is embedded in pooled protocol headers.
type PoolState struct{ recycled bool }

// CheckLive panics if the header sits in a freelist; where names the use.
func (s *PoolState) CheckLive(where string) {
	if s.recycled {
		panic("dsm: " + where + " of a recycled header")
	}
}

func (s *PoolState) retire() {
	if s.recycled {
		panic("dsm: header recycled twice")
	}
	s.recycled = true
}

// reuse finds the mark cleared only if somebody assigned the whole
// struct through a stale pointer while the header was parked.
func (s *PoolState) reuse() {
	if !s.recycled {
		panic("dsm: pooled header was written after it was recycled")
	}
	s.recycled = false
}

// checkDecline panics unless a row that declined engine context left no
// mark for the thread to find: no send posted (nor so queued), the message
// in hand not recycled.
func (h *Host) checkDecline(m *Msg, typ mtype) {
	m.CheckLive("decline")
	if h.late {
		panic("dsm: " + rows[typ].Name + " declined engine context after posting or queueing a send")
	}
}

// poolCount is a Pool's tally of records created.
type poolCount int

func (c *poolCount) inc() { *c++ }

// Live returns the records somebody still owns: made and not parked here.
// Records migrate between pools, so only the sum over a system's pools
// means anything.
func (pl *Pool[T]) Live() int { return int(pl.made) - len(pl.free) }

type marked interface{ state() *PoolState }

func (s *PoolState) state() *PoolState { return s }

func retire[T any](v *T) {
	if m, ok := any(v).(marked); ok {
		m.state().retire()
	}
}

func reuse[T any](v *T) {
	if m, ok := any(v).(marked); ok {
		m.state().reuse()
	}
}

const poisonByte = 0xDB

// poisonExt is poisonByte sign-extended: 0xDB as a byte, -37 as a minipage id.
var poisonExt int8 = poisonByte - 256

// poison fills a retired buffer or arena — bytes or minipage ids — with
// poisonByte: neither a diff nor a minipage to a reader through a stale alias.
func poison[T byte | int](s []T) {
	for i := range s {
		s[i] = T(poisonExt)
	}
}

// checkPoison panics if s has been written since poison filled it.
func checkPoison[T byte | int](s []T) {
	if slices.ContainsFunc(s, func(v T) bool { return v != T(poisonExt) }) {
		panic("dsm: pooled buffer was written after it was recycled")
	}
}

// retireSlice panics if s's backing array is already parked in free and
// poisons all of it.
func retireSlice[T byte | int](s []T, free [][]T) {
	s = s[:cap(s)]
	for _, f := range free {
		if &f[:1][0] == &s[0] {
			panic("dsm: buffer recycled twice")
		}
	}
	poison(s)
}

// LiveHeaders returns the headers somebody still owns. With every thread
// finished and the wire quiet there are none: nothing parks one past a run.
func (s *System) LiveHeaders() int { return s.freePM.Live() }
