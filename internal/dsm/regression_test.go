package dsm

import (
	"fmt"
	"testing"
	"unsafe"

	"millipage/internal/sim"
)

// TestPrefetchSpanClearedWhenUnaligned covers the prefetch-span leak: a
// span is recorded at the address the application passed to Prefetch,
// which need not be minipage-aligned, but used to be cleared only by
// base equality against the fetched minipage's base. An unaligned
// prefetch then leaked its span forever — later faults in the range were
// misclassified as prefetch waits and, worse, later Prefetch calls for
// the range were silently swallowed.
func TestPrefetchSpanClearedWhenUnaligned(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16, Views: 4})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(256)
			th.Write(va, make([]byte, 256))
		}
		th.Barrier()
		if th.Host() == 1 {
			th.Prefetch(va+8, 64) // unaligned: 8 bytes into the minipage
			th.Compute(20 * sim.Millisecond)
			if n := len(th.host.prefetchSpans); n != 0 {
				t.Errorf("unaligned prefetch leaked %d span(s) after completion", n)
			}
		}
		th.Barrier()
		if th.Host() == 0 {
			th.WriteU32(va, 7) // invalidate host 1's copy again
		}
		th.Barrier()
		if th.Host() == 1 {
			before := th.Stats.Prefetches
			th.Prefetch(va+8, 64)
			th.Prefetch(va+8, 64) // in flight: not sent again
			if th.Stats.Prefetches != before+1 {
				t.Errorf("%d prefetches sent, want 1: a re-Prefetch after invalidation swallowed by a stale span, or one in flight sent again", th.Stats.Prefetches-before)
			}
			th.Compute(20 * sim.Millisecond)
		}
		th.Barrier()
	})
}

// TestPrefetchSpanKeptUntilItsReply: a prefetch's reply clears its own
// span only. Host 2 prefetches a minipage host 0 wrote and one host 1
// wrote; host 1 is computing, so the first reply is in while the second
// request waits there, and neither a second Prefetch of it nor a
// GangFetch naming it is sent.
func TestPrefetchSpanKeptUntilItsReply(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 3, SharedSize: 1 << 16, Views: 4})
	var va [2]uint64
	run(t, s, func(th *Thread) {
		if h := th.Host(); h < 2 {
			va[h] = th.Malloc(64)
			th.WriteU32(va[h], 1)
		}
		th.Barrier()
		switch th.Host() {
		case 1:
			th.Compute(10 * sim.Millisecond)
		case 2:
			th.Prefetch(va[0], 64)
			th.Prefetch(va[1], 64)
			th.Compute(sim.Millisecond)
			before := th.Stats.Prefetches
			th.Prefetch(va[1], 64)
			th.GangFetch([]Span{{va[1], 64}})
			if n := len(th.host.prefetchSpans); n != 1 || th.Stats.Prefetches != before {
				t.Errorf("%d spans in flight and %d prefetches sent again, want host 1's only and none", n, th.Stats.Prefetches-before)
			}
		}
		th.Barrier()
	})
}

// TestGangFetchSpansClearedWhenUnaligned is the same leak through the
// composed-views path, with several unaligned members at once.
func TestGangFetchSpansClearedWhenUnaligned(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 18, Views: 8})
	var vas [3]uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			for i := range vas {
				vas[i] = th.Malloc(256)
				th.Write(vas[i], make([]byte, 256))
			}
		}
		th.Barrier()
		if th.Host() == 1 {
			th.GangFetch([]Span{
				{Addr: vas[0] + 4, Size: 32},
				{Addr: vas[1] + 12, Size: 32},
				{Addr: vas[2] + 20, Size: 32},
			})
			// GangFetch blocks until every member is installed; the spans
			// must be gone the moment it returns.
			if n := len(th.host.prefetchSpans); n != 0 {
				t.Errorf("gang fetch leaked %d span(s)", n)
			}
		}
		th.Barrier()
	})
}

// TestChunkExtensionKeepsReadersCoherent covers a chunk extension that
// handed its allocator a writable copy while a reader held one: at chunk
// level 4 a second 8-byte Malloc extends the first one's minipage, and
// the allocation path raised it to ReadWrite because the allocator was
// the directory's owner, with host 1's copy still in the copyset. The
// write then went through without a fault, so no invalidation reached
// host 1, which went on reading the first value.
func TestChunkExtensionKeepsReadersCoherent(t *testing.T) {
	for _, homeOf := range []func(id, hosts int) int{HomeCentral, HomeMod} {
		for _, allocator := range []int{0, 2} {
			s := newSys(t, New, Options{Hosts: 3, SharedSize: 1 << 16, Views: 4, ChunkLevel: 4, HomeOf: homeOf})
			var va uint64
			run(t, s, func(th *Thread) {
				if th.Host() == allocator {
					va = th.Malloc(8)
					th.WriteU32(va, 1)
				}
				th.Barrier()
				if th.Host() == 1 && th.ReadU32(va) != 1 {
					t.Errorf("allocator %d: host 1 does not read the first value", allocator)
				}
				th.Barrier()
				if th.Host() == allocator {
					if next := th.Malloc(8); next != va+8 {
						t.Fatalf("allocator %d: second Malloc at %#x, want the chunk extended to %#x", allocator, next, va+8)
					}
					th.WriteU32(va, 2)
				}
				th.Barrier()
				if th.Host() == 1 {
					if got := th.ReadU32(va); got != 2 {
						t.Errorf("allocator %d: host 1 reads %d after the allocator wrote 2", allocator, got)
					}
				}
			})
		}
	}
}

// TestChunkGrowthAfterTranslation covers a chunk that grows between a
// requester's lookup and the home's handling of its request: host 2
// translates a read of host 1's first 8-byte allocation just before host
// 1's second Malloc extends that minipage and host 1 writes the new
// bytes. Served with the translation as it left host 2, the read copied
// the first 8 bytes only, yet made the whole page readable, and host 2
// then read a stale second allocation with no fault. The home now serves
// the minipage's extent as it stands.
func TestChunkGrowthAfterTranslation(t *testing.T) {
	for i, homeOf := range []func(id, hosts int) int{HomeCentral, HomeMod} {
		for d := sim.Duration(0); d < 8*sim.Microsecond; d += sim.Microsecond {
			s := newSys(t, New, Options{Hosts: 3, SharedSize: 1 << 16, Views: 4, ChunkLevel: 4, HomeOf: homeOf})
			var a, b uint64
			run(t, s, func(th *Thread) {
				if th.Host() == 1 {
					a = th.Malloc(8)
					th.WriteU32(a, 1)
				}
				th.Barrier()
				switch th.Host() {
				case 1:
					b = th.Malloc(8)
					th.WriteU32(b, 77)
				case 2:
					th.Compute(d)
					_ = th.ReadU32(a)
				}
				th.Barrier()
				if th.Host() == 2 {
					if got := th.ReadU32(b); got != 77 {
						t.Errorf("home-based %v, read after %v: host 2 reads %d in the grown chunk, want 77", i == 1, d, got)
					}
				}
			})
		}
	}
}

// TestDirEntryFootprint pins the directory entry's size: a run allocates
// one per minipage, tens of thousands in all. The copyset is not in it: it
// is a row of host bits sized by the cluster (System.marks).
func TestDirEntryFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(dirEntry{}); sz != 48 {
		t.Fatalf("dirEntry is %d bytes, want 48", sz)
	}
}

// TestHintOutsideEveryMinipageIsMisuse: a Prefetch, GangFetch or Push of
// an address inside the views that no allocation covers is the
// application's misuse, reported as the coordinator's misuse is, naming
// the protocol and the host, where a fault there fails the access.
func TestHintOutsideEveryMinipageIsMisuse(t *testing.T) {
	for _, hint := range []struct {
		name string
		give func(th *Thread, va uint64)
	}{
		{"prefetch", func(th *Thread, va uint64) { th.Prefetch(va, 64) }},
		{"prefetch", func(th *Thread, va uint64) { th.GangFetch([]Span{{va, 64}}) }},
		{"push", func(th *Thread, va uint64) { th.Push(va) }},
	} {
		s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16, Views: 2})
		var want string
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != want {
					t.Errorf("%s: Run panicked with %q, want %q", hint.name, got, want)
				}
			}()
			err := s.Run(func(th *Thread) {
				if th.Host() == 1 {
					va := th.Malloc(64) + 4096
					want = fmt.Sprintf("test: host 1: %s: %#x is not in any minipage", hint.name, va)
					hint.give(th, va)
				}
				th.Barrier()
			})
			t.Errorf("%s: Run returned %v", hint.name, err)
		}()
	}
}
