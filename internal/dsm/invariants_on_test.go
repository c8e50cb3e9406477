//go:build invariants

package dsm

import (
	"strings"
	"testing"
)

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), want) {
			t.Fatalf("got panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}

type poolRec struct {
	PoolState
	v int
}

// TestPoolInvariants: under -tags invariants the freelists catch each
// way a pooled header's single-owner rule can be broken.
func TestPoolInvariants(t *testing.T) {
	var pl Pool[poolRec]
	m := pl.Get()
	m.CheckLive("fresh")
	pl.Put(m)
	mustPanic(t, "Send of a recycled header", func() { m.CheckLive("Send") })
	mustPanic(t, "recycled twice", func() { pl.Put(m) })
	if got := pl.Get(); got != m {
		t.Fatal("pool did not hand the record back")
	}
	m.CheckLive("reused")
	pl.Put(m)
	*m = poolRec{v: 1} // a whole-struct write through a stale pointer
	mustPanic(t, "written after it was recycled", func() { pl.Get() })
}

func TestSlicePoolInvariants(t *testing.T) {
	var sp SlicePool[byte]
	b := make([]byte, 32, 64)
	sp.Put(b)
	for i, c := range b[:cap(b)] {
		if c != poisonByte {
			t.Fatalf("byte %d of a recycled buffer is %#x, want the %#x poison", i, c, poisonByte)
		}
	}
	mustPanic(t, "buffer recycled twice", func() { sp.Put(b[:8]) })
	b[:cap(b)][40] = 1 // a write through a stale slice
	mustPanic(t, "written after it was recycled", func() { sp.Get(16) })

	var ints SlicePool[int] // ids are poisoned negative: no stale reader finds a minipage
	s := make([]int, 4)
	ints.Put(s)
	if s[3] >= 0 {
		t.Fatalf("a recycled id list holds %d, want a negative poison", s[3])
	}
	mustPanic(t, "buffer recycled twice", func() { ints.Put(s) })
	s[1] = 7
	mustPanic(t, "written after it was recycled", func() { ints.Get(2) })
}
