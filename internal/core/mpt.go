package core

import (
	"errors"
	"fmt"
	"sort"

	"millipage/internal/vm"
)

// Grain selects the allocator's sharing-granularity policy.
type Grain int

const (
	// GrainMinipage is the paper's dynamic layout: each allocation (or
	// chunk of allocations) defines its own minipage.
	GrainMinipage Grain = iota
	// GrainPage is the traditional page-based layout used as the false
	// sharing baseline and as Figure 7's "none" point: allocations are
	// packed disregarding minipage boundaries and the sharing unit is the
	// full page. Only one view is needed.
	GrainPage
)

// allocAlign is the minimum alignment of allocations, the memory
// addressing granularity of the testbed.
const allocAlign = 4

// Minipage is one entry of the minipage table: the unit of sharing and
// protection. It is identified by its view and <offset, length> within
// the memory object (equivalently, within its associated vpages).
type Minipage struct {
	ID   int
	View int // the application view this minipage is accessed through
	Off  int // byte offset within the memory object
	Size int
}

// Info is the translation record the manager places in reserved message
// header space: everything a host needs to service a request without any
// local lookup (the paper's "thin layer" property for non-manager hosts).
type Info struct {
	ID   int
	Base uint64 // minipage base address in its application view
	Size int
	Priv uint64 // the same bytes through the privileged view (addr2priv)
}

// Info computes the wire translation record for mp under layout l.
func (mp *Minipage) Info(l Layout) Info {
	return Info{
		ID:   mp.ID,
		Base: l.AppAddr(mp.View, mp.Off),
		Size: mp.Size,
		Priv: l.PrivAddr(mp.Off),
	}
}

// ErrOutOfMemory is returned when the shared region is exhausted.
var ErrOutOfMemory = errors.New("core: shared memory object exhausted")

// ErrTooManyViews is returned when an allocation would need more
// minipages on one page than there are configured views.
var ErrTooManyViews = errors.New("core: allocation needs more views than configured")

// pageState tracks the allocator's per-object-page fill.
type pageState struct {
	used  int // bytes consumed from this page
	slots int // minipages whose data lives (partly) on this page
}

// openChunk is an in-progress chunked minipage (paper Section 4.4): up to
// chunkLevel successive same-size allocations aggregated into one
// minipage.
type openChunk struct {
	mp        *Minipage
	allocSize int
	count     int
	capBytes  int
}

// MPT is the minipage table: allocator state plus the directory geometry,
// maintained by the manager host. Lookup by faulting address is the
// manager's Translate step.
type MPT struct {
	l          Layout
	grain      Grain
	chunkLevel int

	pages    []pageState
	nextPage int // first page that has never been touched

	mps    []*Minipage
	byPage [][]*Minipage // per object page, minipages covering it, sorted by Off

	// Slab arenas: minipage records and byPage slot windows are carved
	// out of block allocations instead of being allocated one at a time —
	// workloads allocate tens of thousands of minipages per run and the
	// per-record allocations dominated the E2E profiles.
	mpArena  []Minipage  // remaining records in the current slab
	ptrArena []*Minipage // remaining slot-window space in the current slab

	chunk *openChunk

	maxSlots int // high-water mark of minipages per page = views actually needed
}

// NewMPT creates a minipage table over layout l. chunkLevel <= 1 disables
// chunking; higher values aggregate that many successive allocations per
// minipage.
func NewMPT(l Layout, grain Grain, chunkLevel int) *MPT {
	if chunkLevel < 1 {
		chunkLevel = 1
	}
	return &MPT{
		l:          l,
		grain:      grain,
		chunkLevel: chunkLevel,
		pages:      make([]pageState, l.NumPages),
		byPage:     make([][]*Minipage, l.NumPages),
	}
}

// NumMinipages reports the number of allocated minipages.
func (t *MPT) NumMinipages() int { return len(t.mps) }

// ViewsUsed reports the maximum number of minipages sharing one object
// page so far — the number of application views the workload actually
// needs (Table 2's "Num. views" column).
func (t *MPT) ViewsUsed() int {
	if t.grain == GrainPage {
		return 1
	}
	if t.maxSlots == 0 {
		return 0
	}
	return t.maxSlots
}

// BytesAllocated reports the total bytes under minipage management — the
// shared-memory footprint Table 2 reports.
func (t *MPT) BytesAllocated() int {
	n := 0
	for _, mp := range t.mps {
		n += mp.Size
	}
	return n
}

// align rounds n up to the allocation alignment.
func align(n int) int { return (n + allocAlign - 1) &^ (allocAlign - 1) }

// mpSlab is how many minipage records one arena slab holds.
const mpSlab = 256

// newMinipage carves one record out of the minipage slab arena.
func (t *MPT) newMinipage() *Minipage {
	if len(t.mpArena) == 0 {
		t.mpArena = make([]Minipage, mpSlab)
	}
	mp := &t.mpArena[0]
	t.mpArena = t.mpArena[1:]
	return mp
}

// newSlotList carves a byPage slot window with capacity for the layout's
// view count — the most minipages one page can host — so appends to it
// never re-allocate.
func (t *MPT) newSlotList() []*Minipage {
	w := t.l.NumViews
	if w < 1 {
		w = 1
	}
	if len(t.ptrArena) < w {
		n := w * 128
		if n < 512 {
			n = 512
		}
		t.ptrArena = make([]*Minipage, n)
	}
	lst := t.ptrArena[:0:w]
	t.ptrArena = t.ptrArena[w:]
	return lst
}

// Alloc carves a new allocation of size bytes out of the shared region
// and returns the minipage that manages it together with the VA the
// application should use. With chunking, several allocations may share a
// minipage, so distinct calls can return the same *Minipage with
// different addresses.
func (t *MPT) Alloc(size int) (*Minipage, uint64, error) {
	if size <= 0 {
		return nil, 0, fmt.Errorf("core: Alloc(%d): size must be positive", size)
	}
	if t.grain == GrainPage {
		return t.allocPageGrain(size)
	}
	asz := align(size)

	// Try to extend the open chunk.
	if c := t.chunk; c != nil {
		if c.allocSize == asz && c.count < t.chunkLevel && c.mp.Size+asz <= c.capBytes {
			off := c.mp.Off + c.mp.Size
			c.mp.Size += asz
			c.count++
			t.coverPages(c.mp, off, asz)
			if c.count == t.chunkLevel {
				t.chunk = nil
			}
			return c.mp, t.l.AppAddr(c.mp.View, off), nil
		}
		t.chunk = nil // size changed or chunk filled: close it
	}

	reserve := asz
	if t.chunkLevel > 1 {
		reserve = asz * t.chunkLevel
	}
	mp, err := t.place(asz, reserve)
	if err != nil {
		return nil, 0, err
	}
	if t.chunkLevel > 1 {
		t.chunk = &openChunk{mp: mp, allocSize: asz, count: 1, capBytes: reserve}
	}
	return mp, t.l.AppAddr(mp.View, mp.Off), nil
}

// place creates a minipage of initial size asz, positioned so that it can
// grow to reserve bytes contiguously. Small reservations (<= page size)
// never straddle a page; larger ones take exclusive whole pages.
func (t *MPT) place(asz, reserve int) (*Minipage, error) {
	var off int
	switch {
	case reserve <= vm.PageSize:
		p, err := t.findPageWithRoom(reserve)
		if err != nil {
			return nil, err
		}
		off = p*vm.PageSize + t.pages[p].used
		// The reservation occupies the page up to its cap even before the
		// chunk fills, so later unrelated allocations don't interleave.
		t.pages[p].used += reserve
	default:
		// Exclusive whole pages.
		nPages := (reserve + vm.PageSize - 1) / vm.PageSize
		if t.nextPage+nPages > t.l.NumPages {
			return nil, fmt.Errorf("%w: need %d pages at page %d of %d",
				ErrOutOfMemory, nPages, t.nextPage, t.l.NumPages)
		}
		// Skip the remainder of a partially used page.
		p := t.nextPage
		off = p * vm.PageSize
		for i := 0; i < nPages; i++ {
			t.pages[p+i].used = vm.PageSize
		}
		t.nextPage = p + nPages
	}

	mp := t.newMinipage()
	*mp = Minipage{ID: len(t.mps), Off: off, Size: asz}
	mp.View = t.slotFor(off, reserve)
	if mp.View >= t.l.NumViews {
		return nil, fmt.Errorf("%w: page %d would need view %d of %d",
			ErrTooManyViews, off/vm.PageSize, mp.View, t.l.NumViews)
	}
	t.mps = append(t.mps, mp)
	t.coverPages(mp, off, asz)
	return mp, nil
}

// findPageWithRoom returns the index of the current fill page if it has
// room for n more bytes and a free view slot, otherwise opens a fresh
// page. The number of views is fixed at initialization (Section 3.2), so
// a page already hosting NumViews minipages cannot take another.
func (t *MPT) findPageWithRoom(n int) (int, error) {
	if t.nextPage > 0 {
		p := t.nextPage - 1
		if t.pages[p].used+n <= vm.PageSize && t.pages[p].slots < t.l.NumViews {
			return p, nil
		}
	}
	if t.nextPage >= t.l.NumPages {
		return 0, fmt.Errorf("%w: %d pages in use", ErrOutOfMemory, t.nextPage)
	}
	t.nextPage++
	return t.nextPage - 1, nil
}

// slotFor picks the view for a minipage whose reservation starts at off:
// the number of minipages already resident on its first page. Exclusive
// multi-page reservations always start a page, so they get view 0.
func (t *MPT) slotFor(off, reserve int) int {
	first := off / vm.PageSize
	return t.pages[first].slots
}

// coverPages registers mp as covering [off, off+n) and maintains the
// per-page slot counts and directory.
func (t *MPT) coverPages(mp *Minipage, off, n int) {
	first := off / vm.PageSize
	last := (off + n - 1) / vm.PageSize
	for p := first; p <= last; p++ {
		lst := t.byPage[p]
		if len(lst) == 0 || lst[len(lst)-1] != mp {
			if lst == nil {
				lst = t.newSlotList()
			}
			t.byPage[p] = append(lst, mp)
			t.pages[p].slots++
			if t.pages[p].slots > t.maxSlots {
				t.maxSlots = t.pages[p].slots
			}
		}
	}
}

// allocPageGrain is the traditional page-based layout: bump allocation
// that ignores sharing-unit boundaries; each object page is one minipage
// in view 0, created on first touch.
func (t *MPT) allocPageGrain(size int) (*Minipage, uint64, error) {
	asz := align(size)
	// Bump across pages freely.
	if t.nextPage == 0 {
		if t.l.NumPages == 0 {
			return nil, 0, ErrOutOfMemory
		}
		t.nextPage = 1
	}
	p := t.nextPage - 1
	if t.pages[p].used == vm.PageSize {
		if t.nextPage >= t.l.NumPages {
			return nil, 0, ErrOutOfMemory
		}
		t.nextPage++
		p++
	}
	off := p*vm.PageSize + t.pages[p].used
	if off+asz > t.l.ObjectSize {
		return nil, 0, fmt.Errorf("%w: page-grain bump at %d + %d", ErrOutOfMemory, off, asz)
	}
	// Consume bytes across as many pages as needed.
	rem := asz
	for rem > 0 {
		p = t.nextPage - 1
		avail := vm.PageSize - t.pages[p].used
		take := avail
		if take > rem {
			take = rem
		}
		t.pages[p].used += take
		rem -= take
		if t.pages[p].used == vm.PageSize && rem > 0 {
			if t.nextPage >= t.l.NumPages {
				return nil, 0, ErrOutOfMemory
			}
			t.nextPage++
		}
	}
	// Ensure each covered page has its page-minipage.
	first := off / vm.PageSize
	last := (off + asz - 1) / vm.PageSize
	for q := first; q <= last; q++ {
		if len(t.byPage[q]) == 0 {
			mp := t.newMinipage()
			*mp = Minipage{ID: len(t.mps), View: 0, Off: q * vm.PageSize, Size: vm.PageSize}
			t.mps = append(t.mps, mp)
			if t.byPage[q] == nil {
				t.byPage[q] = t.newSlotList()
			}
			t.byPage[q] = append(t.byPage[q], mp)
			t.pages[q].slots = 1
			if t.maxSlots == 0 {
				t.maxSlots = 1
			}
		}
	}
	return t.byPage[first][0], t.l.AppAddr(0, off), nil
}

// Lookup resolves a faulting application-view address to its minipage —
// the manager's MPT lookup (7 µs in Table 1). ok is false for addresses
// outside any allocation.
func (t *MPT) Lookup(va uint64) (*Minipage, bool) {
	view, off, ok := t.l.Decompose(va)
	if !ok || view >= t.l.NumViews {
		return nil, false
	}
	page := off / vm.PageSize
	lst := t.byPage[page]
	// Binary search the page's minipages by offset.
	i := sort.Search(len(lst), func(i int) bool { return lst[i].Off+lst[i].Size > off })
	if i == len(lst) {
		return nil, false
	}
	mp := lst[i]
	if off < mp.Off || off >= mp.Off+mp.Size {
		return nil, false
	}
	if t.grain != GrainPage && mp.View != view {
		// The address is inside mp's bytes but seen through the wrong
		// view: the application is not using the allocation's address.
		return nil, false
	}
	return mp, true
}

// ByID returns minipage id, if allocated.
func (t *MPT) ByID(id int) (*Minipage, bool) {
	if id < 0 || id >= len(t.mps) {
		return nil, false
	}
	return t.mps[id], true
}
