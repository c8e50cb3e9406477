package dsm

import (
	"fmt"
	"math/rand"
	"testing"

	"millipage/internal/sim"
)

// TestRandomDRFPrograms generates random data-race-free programs and
// checks that the DSM executes them to the same final memory state as
// direct computation predicts, for several cluster sizes and seeds.
//
// Program shape: V variables of random sizes, R rounds. In round r,
// variable v is written (with a value derived from (v, r)) only by the
// thread (v + r) mod T; all threads read a random subset of variables
// every round. Rounds are barrier-separated, so the program is DRF and
// the final state is independent of scheduling — any divergence is a
// coherence bug.
func TestRandomDRFPrograms(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, hosts := range []int{2, 3, 5, 8} {
			seed, hosts := seed, hosts
			t.Run(fmt.Sprintf("seed=%d/hosts=%d", seed, hosts), func(t *testing.T) {
				runRandomProgram(t, seed, hosts)
			})
		}
	}
}

func runRandomProgram(t *testing.T, seed int64, hosts int) {
	t.Helper()
	prg := rand.New(rand.NewSource(seed * 7))
	nVars := prg.Intn(24) + 4
	rounds := prg.Intn(4) + 2
	sizes := make([]int, nVars)
	for v := range sizes {
		sizes[v] = (prg.Intn(64) + 1) * 4 // 4..256 bytes
	}
	// Random per-round read sets, fixed up front so every cluster size
	// runs the same program.
	readSet := make([][][]int, rounds)
	for r := range readSet {
		readSet[r] = make([][]int, hosts)
		for h := range readSet[r] {
			n := prg.Intn(nVars)
			for i := 0; i < n; i++ {
				readSet[r][h] = append(readSet[r][h], prg.Intn(nVars))
			}
		}
	}

	val := func(v, r int) uint32 { return uint32(v*1000003 + r*10007 + 13) }

	s := newSys(t, New, Options{Hosts: hosts, SharedSize: 1 << 20, Views: 16, Seed: seed})
	vas := make([]uint64, nVars)
	var finalErr error
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			for v := range vas {
				vas[v] = th.Malloc(sizes[v])
			}
		}
		th.Barrier()
		for r := 0; r < rounds; r++ {
			for v := 0; v < nVars; v++ {
				if (v+r)%th.NumThreads() == th.ID {
					th.WriteU32(vas[v], val(v, r))
					// Also touch the variable's last word (when distinct)
					// so multi-word minipages move in full.
					if sizes[v] >= 8 {
						th.WriteU32(vas[v]+uint64(sizes[v]-4), ^val(v, r))
					}
				}
			}
			for _, v := range readSet[r][th.Host()] {
				_ = th.ReadU32(vas[v])
			}
			th.Compute(sim.Duration(th.ID) * 20 * sim.Microsecond)
			th.Barrier()
		}
		// Thread 0 verifies the final state, then lingers so the last
		// acks drain before the engine stops (the quiescence check below
		// would otherwise see the verification's own open transactions).
		if th.ID == 0 {
			defer th.Compute(10 * sim.Millisecond)
			for v := 0; v < nVars; v++ {
				want := val(v, rounds-1)
				if got := th.ReadU32(vas[v]); got != want {
					finalErr = fmt.Errorf("var %d = %d, want %d", v, got, want)
					return
				}
				if sizes[v] >= 8 {
					if got := th.ReadU32(vas[v] + uint64(sizes[v]-4)); got != ^want {
						finalErr = fmt.Errorf("var %d tail = %d, want %d", v, got, ^want)
						return
					}
				}
			}
		}
	})
	if finalErr != nil {
		t.Fatal(finalErr)
	}
	// Post-run protocol invariants: quiesced directory, SW/MR protections.
	for id := 0; id < s.mpt.NumMinipages(); id++ {
		if e := homeEntry(s, id); e.busy || queued(&e.queue) != 0 {
			t.Fatalf("minipage %d not quiesced", id)
		}
		mp, _ := s.MPT().ByID(id)
		info := mp.Info(s.Layout)
		writable, readable := 0, 0
		for i := 0; i < hosts; i++ {
			prot, err := s.Host(i).Region.ProtOf(info.Base)
			if err != nil {
				t.Fatal(err)
			}
			switch prot {
			case 2: // vm.ReadWrite
				writable++
			case 1: // vm.ReadOnly
				readable++
			}
		}
		if writable > 1 || (writable == 1 && readable > 0) {
			t.Fatalf("minipage %d violates SW/MR: %d writable, %d readable", id, writable, readable)
		}
	}
}
