package core

import "testing"

// BenchmarkAlloc measures dynamic-layout allocation throughput. The
// arena is recycled off the clock when it fills.
func BenchmarkAlloc(b *testing.B) {
	l, err := NewLayout(1<<28, 16)
	if err != nil {
		b.Fatal(err)
	}
	mpt := NewMPT(l, GrainMinipage, 1)
	// 16 slots per page under the view limit.
	perArena := l.NumPages * 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perArena == perArena-1 {
			b.StopTimer()
			mpt = NewMPT(l, GrainMinipage, 1)
			b.StartTimer()
		}
		if _, _, err := mpt.Alloc(200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPTLookup measures the manager's per-fault address
// resolution.
func BenchmarkMPTLookup(b *testing.B) {
	l, err := NewLayout(64<<20, 16)
	if err != nil {
		b.Fatal(err)
	}
	mpt := NewMPT(l, GrainMinipage, 1)
	var vas []uint64
	for i := 0; i < 50_000; i++ {
		_, va, err := mpt.Alloc(256)
		if err != nil {
			b.Fatal(err)
		}
		vas = append(vas, va)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := mpt.Lookup(vas[i%len(vas)]); !ok {
			b.Fatal("lookup failed")
		}
	}
}
