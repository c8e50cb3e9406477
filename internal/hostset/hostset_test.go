package hostset

import (
	"math/rand"
	"slices"
	"testing"
)

// TestAcrossWordBoundaries exercises members on both sides of every
// 64-bit word of a 130-host set, in rows either side of a slab boundary:
// the regime where a uint64 copyset would silently overflow, and where a
// row's bits straddle words its neighbours share.
func TestAcrossWordBoundaries(t *testing.T) {
	const hosts = 130
	members := []int{0, 1, 63, 64, 65, 127, 128, 129}
	tb := NewTable(hosts, 3)
	tb.Grow(slabRows + 2)
	for _, row := range []int{0, 1, slabRows - 1, slabRows, slabRows + 1} {
		s := tb.Set(row, 1)
		for _, h := range members {
			s.Add(h)
		}
		if s.Count() != len(members) {
			t.Fatalf("row %d: Count = %d, want %d", row, s.Count(), len(members))
		}
		if got := s.Members(); !slices.Equal(got, members) {
			t.Fatalf("row %d: Members = %v, want %v", row, got, members)
		}
		for _, h := range []int{2, 62, 66, 126} {
			if s.Has(h) {
				t.Errorf("row %d: Has(%d) = true for a non-member", row, h)
			}
		}
		if got := s.String(); got != "{0, 1, 63, 64, 65, 127, 128, 129}" {
			t.Errorf("row %d: String = %q", row, got)
		}
		// Drain it one member at a time; it must empty exactly once the
		// last member goes.
		for i, h := range members {
			if !s.Remove(h) || s.Remove(h) {
				t.Errorf("row %d: Remove(%d) did not report membership once", row, h)
			}
			if got, want := s.Next(-1) < 0, i == len(members)-1; got != want {
				t.Errorf("row %d: after removing %d: empty = %v, want %v", row, h, got, want)
			}
		}
		s.Add(129)
		s.Reset(64)
		if !s.Only(64) || s.Only(129) {
			t.Errorf("row %d: after Reset(64) the set is %v", row, s)
		}
	}
	for row := 0; row < slabRows+2; row++ {
		for mark := 0; mark < 3; mark++ {
			if n := tb.Set(row, mark).Count(); n != 0 && !(mark == 1 && tb.Set(row, 1).Only(64)) {
				t.Fatalf("row %d mark %d holds %d hosts a neighbour's changes spilled into", row, mark, n)
			}
		}
	}
}

// TestTableMatchesModel runs random changes against a table and a plain
// map, at host counts that put a row inside a word, astride two, on a
// word exactly and over several, and checks every set every few changes.
func TestTableMatchesModel(t *testing.T) {
	const rows, marks = 70, 3
	for _, hosts := range []int{1, 3, 8, 64, 65, 130} {
		rng := rand.New(rand.NewSource(int64(hosts)))
		tb := NewTable(hosts, marks)
		tb.Grow(rows)
		model := map[[3]int]bool{}
		for step := 0; step < 400; step++ {
			row, mark, h := rng.Intn(rows), rng.Intn(marks), rng.Intn(hosts)
			s := tb.Set(row, mark)
			switch rng.Intn(4) {
			case 0, 1:
				s.Add(h)
				model[[3]int{row, mark, h}] = true
			case 2:
				if got, want := s.Remove(h), model[[3]int{row, mark, h}]; got != want {
					t.Fatalf("%d hosts: Remove(%d) = %v, want %v", hosts, h, got, want)
				}
				delete(model, [3]int{row, mark, h})
			case 3:
				s.Reset(h)
				for g := 0; g < hosts; g++ {
					delete(model, [3]int{row, mark, g})
				}
				model[[3]int{row, mark, h}] = true
			}
			for r := 0; step%5 == 4 && r < rows; r++ {
				for k := 0; k < marks; k++ {
					var want []int
					for g := 0; g < hosts; g++ {
						if model[[3]int{r, k, g}] {
							want = append(want, g)
						}
					}
					s := tb.Set(r, k)
					if got := s.Members(); !slices.Equal(got, want) || s.Count() != len(want) {
						t.Fatalf("%d hosts, step %d: row %d mark %d = %v (count %d), want %v", hosts, step, r, k, got, s.Count(), want)
					}
				}
			}
		}
	}
}

func TestOutOfRangeHostPanics(t *testing.T) {
	tb := NewTable(8, 1)
	tb.Grow(2)
	for _, h := range []int{-1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) on an 8-host set did not panic", h)
				}
			}()
			tb.Set(0, 0).Add(h)
		}()
	}
	if n := tb.Set(1, 0).Count(); n != 0 {
		t.Errorf("the next row holds %d hosts after out-of-range adds", n)
	}
}
