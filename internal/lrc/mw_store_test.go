package lrc

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"millipage/internal/twindiff"
)

// mapIvals is a host's store of closed intervals as it was before the
// generation arenas: one record an interval, a map from minipage to its
// encoded diff, and a GC that drops records one by one up to the floor of
// two barriers ago. TestMWIntervalStoreMatchesMaps keeps it as the
// reference the arenas are compared against.
type mapIvals struct {
	ivals                           []mapIval // ivals[i] has seq base+1+i
	base, floorPrev, floorCur, gced uint64
}

type mapIval struct {
	diffs map[int][]byte
	mps   []int // the write notice's list
}

func (r *mapIvals) gc(own uint64) {
	k := 0
	for ; r.base < r.floorPrev && k < len(r.ivals); k++ {
		r.base++
		r.gced++
	}
	r.ivals = r.ivals[k:]
	r.floorPrev = r.floorCur
	r.floorCur = own
}

// TestMWIntervalStoreMatchesMaps drives one host's real release and
// barrier GC with a seeded random sequence — dirty sets of zero to five
// minipages with random words written, epochs of zero to a dozen
// intervals, six and more epochs deep — and holds the arena store to the
// map-per-interval model after every step: the same seq and minipage list
// on each notice (and still the same on every retained notice after the
// arenas have grown and moved), the same ivalBase and IntervalsGCed, and
// for random (seq, minipage) lookups the same bytes, the same Purged
// answer, and the same panic for a minipage the interval did not write.
func TestMWIntervalStoreMatchesMaps(t *testing.T) {
	const nmp, mpSize, steps = 12, 128, 500
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newMWSys(t, 1, 1)
		err := runMW(s, func(th *MWThread) {
			h := th.host
			var va [nmp]uint64
			var mem [nmp][]byte
			for id := range va {
				va[id] = th.Malloc(mpSize)
				if mp, _ := s.mpt.Lookup(va[id]); mp.ID != id {
					t.Fatalf("allocation %d opened minipage %d", id, mp.ID)
				}
				mem[id] = make([]byte, mpSize)
			}
			ref := &mapIvals{}
			var notices []mwNotice // notices[i] announced interval i+1
			var own uint64
			for step := 0; step < steps; step++ {
				if rng.Intn(4) == 0 {
					ref.gc(own)
					h.gcIntervals()
				} else {
					ids := rng.Perm(nmp)[:rng.Intn(6)]
					slices.Sort(ids)
					diffs := map[int][]byte{}
					for _, id := range ids {
						before := slices.Clone(mem[id])
						for w := rng.Intn(5); w >= 0; w-- {
							off, v := 4*rng.Intn(mpSize/4), byte(rng.Intn(3)) // small values: some writes change nothing
							th.WriteU32(va[id]+uint64(off), uint32(v))
							copy(mem[id][off:], []byte{v, 0, 0, 0})
						}
						enc, err := twindiff.AppendDiff(nil, before, mem[id])
						if err != nil {
							t.Fatal(err)
						}
						diffs[id] = enc
					}
					n := th.release()
					if len(ids) == 0 {
						if n.MPs != nil {
							t.Fatalf("seed %d step %d: a release with nothing dirty returned notice %+v", seed, step, n)
						}
					} else {
						own++
						ref.ivals = append(ref.ivals, mapIval{diffs, ids})
						notices = append(notices, n)
						if n.Seq != own || !slices.Equal(n.MPs, ids) {
							t.Fatalf("seed %d step %d: notice %+v, want seq %d minipages %v", seed, step, n, own, ids)
						}
					}
				}
				if h.ivalBase != ref.base || h.sys.stats.IntervalsGCed != ref.gced {
					t.Fatalf("seed %d step %d: ivalBase %d IntervalsGCed %d, the map store has %d and %d",
						seed, step, h.ivalBase, h.sys.stats.IntervalsGCed, ref.base, ref.gced)
				}
				for i, iv := range ref.ivals {
					if n := notices[int(ref.base)+i]; !slices.Equal(n.MPs, iv.mps) {
						t.Fatalf("seed %d step %d: retained notice %d now lists %v, not %v", seed, step, n.Seq, n.MPs, iv.mps)
					}
				}
				for k := 0; k < 8 && own > 0; k++ {
					seq, mp := 1+uint64(rng.Intn(int(own))), rng.Intn(nmp)
					var want []byte
					wantOK, wantPanic := seq > ref.base, ""
					if wantOK {
						if want, wantOK = ref.ivals[seq-ref.base-1].diffs[mp]; !wantOK {
							wantPanic = fmt.Sprintf("lrc-mw: interval %d at host 0 has no diff for noticed minipage %d", seq, mp)
						}
					}
					got, ok, panicked := lookup(h, seq, mp)
					if panicked != wantPanic || ok != wantOK || !bytes.Equal(got, want) {
						t.Fatalf("seed %d step %d: diff (%d, %d) = %x ok %v panic %q, the map store gives %x ok %v panic %q",
							seed, step, seq, mp, got, ok, panicked, want, wantOK, wantPanic)
					}
				}
			}
			if ref.gced < 100 || ref.base == own {
				t.Fatalf("seed %d: %d intervals purged of %d, %d retained: the sequence did not exercise GC", seed, ref.gced, own, own-ref.base)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// lookup is h.diffOf with a panic turned into its message.
func lookup(h *MWHost, seq uint64, mp int) (enc []byte, ok bool, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	enc, ok = h.diffOf(seq, mp)
	return enc, ok, ""
}
