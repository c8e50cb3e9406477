package hostset

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// ascending returns the set's members in ascending order.
func ascending(s Set) []int {
	var hs []int
	for h := s.Next(-1); h >= 0; h = s.Next(h) {
		hs = append(hs, h)
	}
	return hs
}

// TestAcrossWordBoundaries exercises members on both sides of every
// 64-bit word of a 130- and a 256-host set, in rows either side of a slab
// boundary: the regime where a uint64 copyset would silently overflow,
// where a row's bits straddle words its neighbours share, and where a
// slab holds fewer rows than at 64 hosts.
func TestAcrossWordBoundaries(t *testing.T) {
	for _, hosts := range []int{130, 256} {
		members := []int{0, 1, 63, 64, 65, 127, 128, hosts - 1}
		tb := NewTable(hosts, 3)
		rows := tb.perSlab
		tb.Grow(rows + 2)
		if len(tb.slabs) != 2 {
			t.Fatalf("%d hosts: %d rows take %d slabs, want 2", hosts, rows+2, len(tb.slabs))
		}
		for _, row := range []int{0, 1, rows - 1, rows, rows + 1} {
			s := tb.Set(row, 1)
			for _, h := range members {
				s.Add(h)
			}
			if s.Count() != len(members) {
				t.Fatalf("%d hosts, row %d: Count = %d, want %d", hosts, row, s.Count(), len(members))
			}
			if got := ascending(s); !slices.Equal(got, members) {
				t.Fatalf("%d hosts, row %d: Members = %v, want %v", hosts, row, got, members)
			}
			for _, h := range []int{2, 62, 66, 126} {
				if s.Has(h) {
					t.Errorf("%d hosts, row %d: Has(%d) = true for a non-member", hosts, row, h)
				}
			}
			if got, want := s.String(), fmt.Sprintf("{0, 1, 63, 64, 65, 127, 128, %d}", hosts-1); got != want {
				t.Errorf("%d hosts, row %d: String = %q, want %q", hosts, row, got, want)
			}
			// Drain it one member at a time; it must empty exactly once the
			// last member goes.
			for i, h := range members {
				if !s.Remove(h) || s.Remove(h) {
					t.Errorf("%d hosts, row %d: Remove(%d) did not report membership once", hosts, row, h)
				}
				if got, want := s.Next(-1) < 0, i == len(members)-1; got != want {
					t.Errorf("%d hosts, row %d: after removing %d: empty = %v, want %v", hosts, row, h, got, want)
				}
			}
			s.Add(hosts - 1)
			s.Reset(64)
			if !s.Only(64) || s.Only(hosts-1) {
				t.Errorf("%d hosts, row %d: after Reset(64) the set is %v", hosts, row, s)
			}
		}
		for row := 0; row < rows+2; row++ {
			for mark := 0; mark < 3; mark++ {
				if n := tb.Set(row, mark).Count(); n != 0 && !(mark == 1 && tb.Set(row, 1).Only(64)) {
					t.Fatalf("%d hosts: row %d mark %d holds %d hosts a neighbour's changes spilled into", hosts, row, mark, n)
				}
			}
		}
	}
}

// A slab holds 8,192 rows up to 64 hosts and at most their 192 KiB past
// them, in whole words: a wide cluster does not pay for rows it never
// reaches.
func TestSlabBytes(t *testing.T) {
	for _, c := range []struct{ hosts, marks, rows int }{
		{1, 3, 8192}, {8, 3, 8192}, {64, 3, 8192}, {64, 1, 8192},
		{130, 3, 4032}, {256, 3, 2048}, {1000, 3, 512}, {1024, 3, 512},
	} {
		tb := NewTable(c.hosts, c.marks)
		tb.Grow(1)
		bytes := 8 * len(tb.slabs[0])
		if tb.perSlab != c.rows || bytes*8 != c.marks*c.rows*c.hosts || c.hosts > 64 && bytes > 192<<10 {
			t.Errorf("%d hosts, %d marks: %d rows in %d bytes a slab, want %d rows", c.hosts, c.marks, tb.perSlab, bytes, c.rows)
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
					if got := ascending(s); !slices.Equal(got, want) || s.Count() != len(want) {
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
