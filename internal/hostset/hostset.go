// Package hostset is the cluster's table of host bits: for each minipage,
// a fixed number of marks, each one bit per host. A protocol keeps its
// per-minipage host sets here — SC's copysets and each host's marks —
// sized by the cluster it runs, not by the 1,024-host cap: at 8 hosts a
// copyset is one byte, at 64 one word. The table grows in slabs, so
// growing it moves no bit and costs one allocation per slab, and a slab is
// sized by its bytes, so a wide cluster does not pay for rows it never
// reaches.
package hostset

import (
	"fmt"
	"math/bits"
	"strings"
)

// maxSlabRows is how many rows (minipages) one slab of a table holds at
// most; slabBits caps a slab at what maxSlabRows rows of three marks cost
// at 64 hosts, 192 KiB, so past 64 hosts a slab holds fewer rows.
const (
	maxSlabRows = 8192
	slabBits    = maxSlabRows * 3 * 64
)

// rowsPerSlab returns how many rows one slab of a table holds: as many as
// fit slabBits, at most maxSlabRows, and a multiple of 64, so every slab
// is a whole number of words.
func rowsPerSlab(hosts, marks int) int {
	return max(64, min(maxSlabRows, slabBits/(marks*hosts))&^63)
}

// Table holds, for each row, marks sets of host ids in [0, hosts). A row's
// set for one mark is hosts consecutive bits of its slab, ascending by host
// id; a slab holds each mark's sets of its rows in turn.
type Table struct {
	hosts, marks int
	perSlab      int // rows a slab holds
	slabs        [][]uint64
}

// NewTable returns an empty table of marks sets a row over hosts hosts.
func NewTable(hosts, marks int) Table {
	return Table{hosts: hosts, marks: marks, perSlab: rowsPerSlab(hosts, marks)}
}

// Grow makes rows [0, rows) addressable; a new row's sets are empty.
func (t *Table) Grow(rows int) {
	for len(t.slabs)*t.perSlab < rows {
		t.slabs = append(t.slabs, make([]uint64, t.marks*t.perSlab*t.hosts/64))
	}
}

// Set returns row's set for mark, a view into the table: changing it
// changes the table.
func (t *Table) Set(row, mark int) Set {
	return Set{w: t.slabs[row/t.perSlab], at: (mark*t.perSlab + row%t.perSlab) * t.hosts, n: t.hosts}
}

// Set is one row's set of host ids for one mark: bits [at, at+n) of w.
// Its methods panic on a host id outside [0, n), the loud failure an
// oversized cluster would produce, never touching a neighbouring row.
type Set struct {
	w     []uint64
	at, n int
}

// bit returns h's word and mask.
func (s Set) bit(h int) (*uint64, uint64) {
	if uint(h) >= uint(s.n) {
		panic(fmt.Sprintf("hostset: host %d outside a set of %d hosts", h, s.n))
	}
	i := s.at + h
	return &s.w[i>>6], 1 << (i & 63)
}

// Has reports whether h is a member.
func (s Set) Has(h int) bool { w, b := s.bit(h); return *w&b != 0 }

// Add makes h a member.
func (s Set) Add(h int) { w, b := s.bit(h); *w |= b }

// Remove takes h out of the set and reports whether it was a member.
func (s Set) Remove(h int) bool { w, b := s.bit(h); was := *w&b != 0; *w &^= b; return was }

// Reset makes the set {h}.
func (s Set) Reset(h int) {
	for i, end := s.at, s.at+s.n; i < end; {
		k := min(64-i&63, end-i)
		s.w[i>>6] &^= (1<<k - 1) << (i & 63)
		i += k
	}
	s.Add(h)
}

// word returns the members among host ids [64j, 64j+64), bit i for host
// 64j+i.
func (s Set) word(j int) uint64 {
	i := s.at + j<<6
	w := s.w[i>>6] >> (i & 63)
	if i&63 != 0 && i>>6+1 < len(s.w) {
		w |= s.w[i>>6+1] << (64 - i&63)
	}
	if rest := s.n - j<<6; rest < 64 {
		w &= 1<<rest - 1
	}
	return w
}

// Count returns the number of members.
func (s Set) Count() int {
	n := 0
	for j := 0; j<<6 < s.n; j++ {
		n += bits.OnesCount64(s.word(j))
	}
	return n
}

// Next returns the lowest member above h, or -1 if there is none; Next(-1)
// is the lowest member.
func (s Set) Next(h int) int {
	h++
	for j := h >> 6; j<<6 < s.n; j++ {
		w := s.word(j)
		if j == h>>6 {
			w &^= 1<<(h&63) - 1
		}
		if w != 0 {
			return j<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Only reports whether the set is {h}.
func (s Set) Only(h int) bool { return s.Has(h) && s.Count() == 1 }

func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for h := s.Next(-1); h >= 0; h = s.Next(h) {
		if b.Len() > 1 {
			b.WriteString(", ")
		}
		fmt.Fprint(&b, h)
	}
	b.WriteByte('}')
	return b.String()
}
