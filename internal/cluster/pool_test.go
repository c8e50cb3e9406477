package cluster_test

import (
	"testing"

	"millipage/internal/dsm"
)

type poolRec struct {
	dsm.PoolState
	v int
}

func TestPoolReusesLastPut(t *testing.T) {
	var pl dsm.Pool[poolRec]
	a, b := pl.Get(), pl.Get()
	if a == b {
		t.Fatal("an empty pool handed out one record twice")
	}
	a.v = 7
	pl.Put(a)
	pl.Put(b)
	if got := pl.Get(); got != b {
		t.Fatal("Get did not return the most recently recycled record")
	}
	if got := pl.Get(); got != a || got.v != 7 {
		t.Fatalf("Get returned %+v, want the first record as it was put back", got)
	}
	if got := pl.Get(); got == a || got == b {
		t.Fatal("a drained pool handed out a record that is in use")
	}
}

func TestSlicePoolFitsByCapacity(t *testing.T) {
	var sp dsm.SlicePool[byte]
	small, big := make([]byte, 64), make([]byte, 4096)
	sp.Put(small)
	sp.Put(big)
	sp.Put(nil) // nothing to keep
	if got := sp.Get(128); len(got) != 128 || &got[0] != &big[0] {
		t.Fatal("Get(128) did not reuse the only recycled buffer that is large enough")
	}
	if got := sp.Get(128); cap(got) < 128 || &got[:1][0] == &small[0] {
		t.Fatal("Get(128) handed out the 64-byte buffer")
	}
	if got := sp.Get(0); cap(got) != 64 {
		t.Fatalf("Get(0) made a buffer of capacity %d with one on the freelist", cap(got))
	}
}
