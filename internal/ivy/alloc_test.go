package ivy

import "testing"

// TestLockRoundAllocFree: a lock handed back and forth between two hosts
// with a barrier after each round allocates nothing in steady state. The
// service headers are the kernel's and pooled; Ivy's own page traffic
// still allocates a header and a page buffer a message, so the round
// touches no shared memory.
func TestLockRoundAllocFree(t *testing.T) {
	s := newSys(t, 2)
	const warmup, measured = 300, 1000
	avg := -1.0
	err := run(s, func(th *Thread) {
		i := 0
		round := func() {
			th.Lock(1)
			th.Unlock(1)
			th.Barrier()
			i++
		}
		for i < warmup {
			round()
		}
		if th.Host() == 0 {
			avg = testing.AllocsPerRun(measured, round) // one extra warm-up call, then measured
		} else {
			for i < warmup+1+measured {
				round()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("a lock round allocates %.0f objects in steady state, want 0", avg)
	}
}
