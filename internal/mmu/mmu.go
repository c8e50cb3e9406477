// Package mmu models the memory-hierarchy hardware of the paper's testbed
// — a 300 MHz Intel Pentium II — at the level of detail the MultiView
// overhead study (Section 4.1 / Figure 5) depends on:
//
//   - a 64-entry data TLB;
//   - a 16 KB L1 data cache;
//   - a 512 KB physically tagged L2 in which page-table entries (4 bytes
//     each on IA-32) are cacheable;
//   - a hardware page walk on TLB miss whose PTE fetch goes through the
//     cache hierarchy.
//
// The paper's explanation of Figure 5 is a statement about PTE residency:
// "the breaking-points occur precisely when the PTEs can no longer be
// cached" in the 512 KB L2 — n·N = 512 (N in MB) is 128 K PTEs = 512 KB.
// We model that mechanism directly: PTE lines compete for an L2-sized
// residency pool, while the traversal's data stream (which is touched
// once per pass and has essentially no L2 reuse at these array sizes)
// gets a small effective share. Beyond the L2 budget, every page walk
// goes to memory and additionally pays an operating-system page-table
// management penalty — the paper's own secondary suspect ("overloading
// the operating system's internal data structures"). The result
// reproduces Figure 5's four reported facts: negligible overhead for
// n <= 32 at 512 KB <= N <= 16 MB; breaking points at n·N = 512 MB·views;
// linear slowdown growth beyond them; and N-independent slopes.
package mmu

// Config describes the modeled hardware.
type Config struct {
	PageSize int
	PTESize  int // bytes per page-table entry (4 on IA-32)

	TLBEntries int // data TLB entries
	TLBAssoc   int // data TLB associativity

	L1Size, L1Line, L1Assoc int

	// L2Size is the unified L2 capacity available to PTE lines — the
	// quantity the breaking points are measured against. L2DataShare is
	// the effective capacity the once-touched traversal data retains
	// under contention.
	L2Size, L2Line, L2Assoc int
	L2DataShare             int

	// Latencies in CPU cycles.
	L1HitCycles int
	L2HitCycles int
	MemCycles   int
	TLBWalkBase int // page-walk overhead beyond the PTE fetch itself
	CPUMHz      int

	// LoopCycles is the per-element instruction cost of the traversal
	// loop itself (index update, bounds check, byte load consume).
	LoopCycles int

	// PTEMissOSPenalty is charged per PTE fetch that misses L2, modeling
	// the OS page-table management cost beyond the raw memory access.
	// It calibrates Figure 5's magnitude; the breaking points and
	// linearity do not depend on it.
	PTEMissOSPenalty int
}

// PentiumII returns the testbed configuration: 300 MHz Pentium II with a
// 64-entry 4-way DTLB, 16 KB 4-way L1D, 512 KB 4-way L2, 32-byte lines.
func PentiumII() Config {
	return Config{
		PageSize:    4096,
		PTESize:     4,
		TLBEntries:  64,
		TLBAssoc:    4,
		L1Size:      16 << 10,
		L1Line:      32,
		L1Assoc:     4,
		L2Size:      512 << 10,
		L2Line:      32,
		L2Assoc:     4,
		L2DataShare: 64 << 10,
		L1HitCycles: 1,
		L2HitCycles: 8,
		MemCycles:   60,
		TLBWalkBase: 3,
		CPUMHz:      300,

		LoopCycles:       2,
		PTEMissOSPenalty: 3400,
	}
}

// cache is a set-associative cache with LRU replacement, tracked at line
// granularity.
type cache struct {
	lineSize uint64
	sets     uint64
	assoc    int
	tags     []uint64
	valid    []bool
	ages     []uint32
	clock    uint32
}

func newCache(size, line, assoc int) *cache {
	sets := size / (line * assoc)
	if sets < 1 {
		sets = 1
	}
	n := sets * assoc
	return &cache{
		lineSize: uint64(line),
		sets:     uint64(sets),
		assoc:    assoc,
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
		ages:     make([]uint32, n),
	}
}

// access touches addr; it returns true on hit and inserts the line on a
// miss.
func (c *cache) access(addr uint64) bool {
	line := addr / c.lineSize
	set := line % c.sets
	base := int(set) * c.assoc
	c.clock++
	victim, oldest := base, c.clock
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			c.ages[i] = c.clock
			return true
		}
		if !c.valid[i] {
			victim, oldest = i, 0
		} else if c.ages[i] < oldest {
			victim, oldest = i, c.ages[i]
		}
	}
	c.tags[victim] = line
	c.valid[victim] = true
	c.ages[victim] = c.clock
	return false
}

// tlb is a set-associative TLB over virtual page numbers.
type tlb struct {
	sets  uint64
	assoc int
	tags  []uint64
	valid []bool
	ages  []uint32
	clock uint32
}

func newTLB(entries, assoc int) *tlb {
	sets := entries / assoc
	if sets < 1 {
		sets = 1
	}
	return &tlb{
		sets:  uint64(sets),
		assoc: assoc,
		tags:  make([]uint64, sets*assoc),
		valid: make([]bool, sets*assoc),
		ages:  make([]uint32, sets*assoc),
	}
}

func (t *tlb) access(vpn uint64) bool {
	set := vpn % t.sets
	base := int(set) * t.assoc
	t.clock++
	victim, oldest := base, t.clock
	for w := 0; w < t.assoc; w++ {
		i := base + w
		if t.valid[i] && t.tags[i] == vpn {
			t.ages[i] = t.clock
			return true
		}
		if !t.valid[i] {
			victim, oldest = i, 0
		} else if t.ages[i] < oldest {
			victim, oldest = i, t.ages[i]
		}
	}
	t.tags[victim] = vpn
	t.valid[victim] = true
	t.ages[victim] = t.clock
	return false
}

// Stats accumulates access counts and cycles.
type Stats struct {
	Accesses  uint64
	TLBMisses uint64
	L1Misses  uint64 // data-side L1 misses
	L2Misses  uint64 // data-side effective-L2 misses
	PTEL2Miss uint64 // PTE fetches that missed L2 (the Figure 5 mechanism)
	Cycles    uint64
}

// Machine is one modeled CPU+memory hierarchy instance. Because the PTE
// residency question is what Figure 5 hinges on, PTE lines get a
// dedicated model of the L2's capacity while data goes through a small
// effective share (see the package comment).
type Machine struct {
	cfg    Config
	tlb    *tlb
	l1     *cache
	l2pte  *cache // L2 capacity as seen by page-table lines
	l2data *cache // effective L2 share retained by streaming data

	// Synthetic physical placement of the page table: PTEs for vpn live
	// at PTBase + vpn*PTESize, mirroring IA-32 page-table locality
	// (eight PTEs per 32-byte line).
	PTBase uint64

	// Last-translation fast path. After any access, the touched vpn is
	// the most-recently-used entry of its TLB set and the touched data
	// line is the most-recently-used line of its L1 set (a miss installs
	// the entry and makes it MRU). A repeat of either is therefore a
	// guaranteed hit whose LRU re-stamp cannot change any entry's
	// relative age, so it can be answered without touching the model:
	// identical cycles, identical statistics, identical future behavior.
	// NoFastPath disables the shortcut so tests can verify exactly that.
	lastVPN    uint64
	lastLine   uint64
	lastValid  bool
	NoFastPath bool

	S Stats
}

// New returns a machine with cold caches.
func New(cfg Config) *Machine {
	dataShare := cfg.L2DataShare
	if dataShare <= 0 {
		dataShare = cfg.L2Size
	}
	return &Machine{
		cfg:    cfg,
		tlb:    newTLB(cfg.TLBEntries, cfg.TLBAssoc),
		l1:     newCache(cfg.L1Size, cfg.L1Line, cfg.L1Assoc),
		l2pte:  newCache(cfg.L2Size, cfg.L2Line, cfg.L2Assoc),
		l2data: newCache(dataShare, cfg.L2Line, cfg.L2Assoc),
		PTBase: 0xC000_0000,
	}
}

// fetchData charges one data reference at physical address addr.
func (m *Machine) fetchData(addr uint64) uint64 {
	if m.l1.access(addr) {
		return uint64(m.cfg.L1HitCycles)
	}
	m.S.L1Misses++
	if m.l2data.access(addr) {
		return uint64(m.cfg.L2HitCycles)
	}
	m.S.L2Misses++
	return uint64(m.cfg.MemCycles)
}

// fetchPTE charges one page-table fetch at physical address addr.
func (m *Machine) fetchPTE(addr uint64) uint64 {
	if m.l2pte.access(addr) {
		return uint64(m.cfg.L2HitCycles)
	}
	m.S.PTEL2Miss++
	return uint64(m.cfg.MemCycles + m.cfg.PTEMissOSPenalty)
}

// Access models one data reference at virtual address va mapping to
// physical address pa: TLB lookup, page walk on miss (a cacheable PTE
// fetch), then the data reference itself. Repeats of the last vpn and
// the last data line take the MRU fast path (see the Machine fields).
func (m *Machine) Access(va, pa uint64) {
	m.S.Accesses++
	cycles := uint64(m.cfg.LoopCycles)
	vpn := va / uint64(m.cfg.PageSize)
	line := pa / m.l1.lineSize
	if m.lastValid && !m.NoFastPath && vpn == m.lastVPN {
		if line == m.lastLine {
			m.S.Cycles += cycles + uint64(m.cfg.L1HitCycles)
			return
		}
	} else if !m.tlb.access(vpn) {
		m.S.TLBMisses++
		pteAddr := m.PTBase + vpn*uint64(m.cfg.PTESize)
		cycles += uint64(m.cfg.TLBWalkBase)
		cycles += m.fetchPTE(pteAddr)
	}
	if m.lastValid && !m.NoFastPath && line == m.lastLine {
		cycles += uint64(m.cfg.L1HitCycles)
	} else {
		cycles += m.fetchData(pa)
	}
	m.lastVPN = vpn
	m.lastLine = line
	m.lastValid = true
	m.S.Cycles += cycles
}

// Seconds converts the accumulated cycles to wall time on the modeled
// CPU.
func (m *Machine) Seconds() float64 {
	return float64(m.S.Cycles) / (float64(m.cfg.CPUMHz) * 1e6)
}
