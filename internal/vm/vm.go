// Package vm is a software virtual-memory subsystem: memory objects backed
// by page frames, per-host address spaces with page tables, per-page
// protections, and synchronous fault upcalls.
//
// It stands in for the Windows-NT mechanisms the Millipage paper uses —
// CreateFileMapping / MapViewOfFile / VirtualProtect and SEH page-fault
// interception. The substitution preserves the paper's semantics exactly:
// every access checks the protection of the virtual page it goes through;
// an insufficient protection invokes the installed fault handler in the
// faulting thread's context; the access retries once the handler returns.
// The only difference is that the "trap" is a function call rather than a
// CPU exception, which is what makes the system buildable in portable Go.
//
// The package is deliberately time-free: it never charges virtual time
// itself. Cost accounting lives in the DSM layer (which knows what each
// operation costs on the paper's hardware) and in the mmu package (which
// models the TLB/cache behaviour of translations for the MultiView
// overhead study).
package vm

import (
	"errors"
	"fmt"
)

// PageSize is the architecture page size used throughout the reproduction,
// matching the Intel Pentium II of the paper's testbed.
const PageSize = 4096

// Prot is a virtual-page protection, exactly the three states the paper's
// protocol uses: NoAccess marks a non-present minipage, ReadOnly a read
// copy, ReadWrite a writable copy.
type Prot uint8

const (
	NoAccess Prot = iota
	ReadOnly
	ReadWrite
)

func (p Prot) String() string {
	switch p {
	case NoAccess:
		return "NoAccess"
	case ReadOnly:
		return "ReadOnly"
	case ReadWrite:
		return "ReadWrite"
	default:
		return fmt.Sprintf("Prot(%d)", uint8(p))
	}
}

// AccessKind distinguishes read faults from write faults.
type AccessKind uint8

const (
	Read AccessKind = iota
	Write
)

func (k AccessKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// allows reports whether protection p permits an access of kind k.
func (p Prot) allows(k AccessKind) bool {
	switch k {
	case Read:
		return p >= ReadOnly
	case Write:
		return p == ReadWrite
	}
	return false
}

// slabMax caps the unit a FramePool grows by.
const slabMax = 1 << 20

// FramePool is the physical memory that memory objects draw page frames
// from: it carves PageSize frames out of larger slabs. A slab is one Go
// allocation, so the allocations of a cluster whose hosts share a pool
// follow the megabytes its hosts touch together — not the pages (one
// allocation per frame) and not the hosts (one extent each). Frames are
// never returned; a pool lives and dies with the objects drawing on it.
type FramePool struct {
	slab []byte // unconsumed tail of the newest slab
}

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool { return &FramePool{} }

// frame hands out one zeroed frame, growing the pool by slabBytes when the
// newest slab is used up.
func (p *FramePool) frame(slabBytes int) *[PageSize]byte {
	if len(p.slab) == 0 {
		p.slab = make([]byte, slabBytes)
	}
	f := (*[PageSize]byte)(p.slab)
	p.slab = p.slab[PageSize:]
	return f
}

// MemObject is a shared memory region backed by page frames — the analogue
// of an NT memory section created with CreateFileMapping. Several views in
// one or more address spaces may map (parts of) the same object; all views
// alias the same frames.
//
// Like the section it stands for, the object is demand-zero: a frame
// materialises, zeroed, the first time it is touched (Frame, and hence any
// access or Bypass that reaches it). Mapping and protecting pages touch
// nothing.
type MemObject struct {
	pool   *FramePool
	frames []*[PageSize]byte // nil until first touch
}

// NewMemObject creates a demand-zero memory object of the given size,
// rounded up to a whole number of pages, on a pool of its own.
func NewMemObject(size int) *MemObject { return NewFramePool().NewMemObject(size) }

// NewMemObject creates a demand-zero memory object of the given size,
// rounded up to a whole number of pages, whose frames come from p. The pool
// grows by min(1 MB, object size) at a time, so objects smaller than a slab
// never cost more together than they would have eagerly allocated.
func (p *FramePool) NewMemObject(size int) *MemObject {
	if size <= 0 {
		panic("vm: NewMemObject with non-positive size")
	}
	pages := (size + PageSize - 1) / PageSize
	return &MemObject{pool: p, frames: make([]*[PageSize]byte, pages)}
}

// NumPages reports the number of page frames in the object.
func (mo *MemObject) NumPages() int { return len(mo.frames) }

// Size reports the object's size in bytes (always a multiple of PageSize).
func (mo *MemObject) Size() int { return len(mo.frames) * PageSize }

// Frame returns the backing bytes of frame i, materialising it zeroed on
// first touch. The returned slice aliases the object's storage: writes
// through it are visible through every view.
func (mo *MemObject) Frame(i int) []byte { return mo.frame(i)[:] }

// frame is Frame for callers that want the page as the array it is.
func (mo *MemObject) frame(i int) *[PageSize]byte {
	f := mo.frames[i]
	if f == nil {
		f = mo.touch(i)
	}
	return f
}

// touch is Frame's first-touch path, kept out of line so Frame inlines.
//
//go:noinline
func (mo *MemObject) touch(i int) *[PageSize]byte {
	f := mo.pool.frame(min(mo.Size(), slabMax))
	mo.frames[i] = f
	return f
}

// pte is a page-table entry, in one byte: the index of its
// mapping in the address space's mapping table in the low six bits, the
// protection in the top two. A view maps one object at one offset, so
// every page of it shares one mapping, and MultiView's n+1 views of a
// region take n+1 of them. The dense table spans every view and the guard
// gaps between them, so its entry size is most of a host's fixed
// footprint. The zero entry is unmapped (mapping index 0).
type pte uint8

const protShift = 6

// MaxMappings is how many distinct (object, offset) mappings one address
// space holds: what the six index bits of a page-table entry name, less
// the unmapped index 0. MapView rejects the next.
const MaxMappings = 1<<protShift - 1

func (e pte) prot() Prot { return Prot(e >> protShift) }

// withProt returns e with its protection set to prot.
func (e pte) withProt(prot Prot) pte { return e&MaxMappings | pte(prot)<<protShift }

// mapping is one record of an address space's mapping table: the object a
// view maps and the offset from a vpn to its frame, frame = vpn + delta.
type mapping struct {
	obj   *MemObject
	delta int
}

// Fault describes a protection or presence violation, as delivered to the
// installed fault handler.
type Fault struct {
	Addr uint64     // the faulting virtual address
	Kind AccessKind // read or write
	Prot Prot       // the protection found on the vpage
}

func (f Fault) Error() string {
	return fmt.Sprintf("vm: %s fault at %#x (prot %v)", f.Kind, f.Addr, f.Prot)
}

// FaultHandler services a fault in the faulting thread's context. ctx is
// an opaque per-thread value supplied by the accessor (the DSM passes its
// thread state through it). The handler must raise the page's protection
// so the access can succeed, or return an error to abort it.
type FaultHandler func(ctx any, f Fault) error

// Errors returned by address-space operations.
var (
	ErrUnmapped   = errors.New("vm: address not mapped")
	ErrNoHandler  = errors.New("vm: fault with no handler installed")
	ErrFaultStorm = errors.New("vm: access still faulting after repeated handler invocations")
	// errMappingsFull is MapView's error for a mapping past MaxMappings.
	errMappingsFull = fmt.Errorf("vm: MapView of a new (object, offset) mapping into an address space that holds %d", MaxMappings)
)

// unmapped is the error of an operation on the unmapped address va.
func unmapped(va uint64) error { return fmt.Errorf("%w: %#x", ErrUnmapped, va) }

// maxFaultRetries bounds handler-retry loops so a handler that fails to
// raise the protection surfaces as an error instead of livelock.
const maxFaultRetries = 8

// AddressSpace is one host's (process's) virtual address space: a page
// table plus an installed fault handler. It is not safe for use from
// multiple OS threads; in this reproduction all access is serialized by
// the simulation engine.
//
// The page table is a dense slice covering the mapped span. Every user of
// this package maps compact contiguous view ranges (the layout places all
// views back to back), so density costs little memory and makes the
// per-access translation an index instead of a map probe — the single
// hottest operation in the whole simulator.
type AddressSpace struct {
	base    uint64                   // vpn of pt[0]
	pt      []pte                    // dense page table
	maps    [MaxMappings + 1]mapping // the table pt's entries index, inline: no allocation per host
	handler FaultHandler

	// Counters, read by the DSM statistics layer.
	ReadFaults  uint64
	WriteFaults uint64
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace { return &AddressSpace{} }

// slot returns the live entry for vpn, or nil if the page is unmapped.
func (as *AddressSpace) slot(vpn uint64) *pte {
	i := vpn - as.base // wraps past len(as.pt) when vpn < as.base
	if i >= uint64(len(as.pt)) {
		return nil
	}
	e := &as.pt[i]
	if *e == 0 {
		return nil
	}
	return e
}

// target returns the object and frame that e, vpn's entry, maps.
func (as *AddressSpace) target(vpn uint64, e pte) (*MemObject, int) {
	m := &as.maps[e&MaxMappings]
	return m.obj, int(vpn) + m.delta
}

// mapIndex returns the index of the mapping (obj, delta), claiming a free
// record if no view has mapped that pair yet. Records are never freed:
// remapping a view reuses its own.
func (as *AddressSpace) mapIndex(obj *MemObject, delta int) (pte, error) {
	want := mapping{obj, delta}
	for i := 1; i < len(as.maps); i++ {
		if as.maps[i].obj == nil {
			as.maps[i] = want
		}
		if as.maps[i] == want {
			return pte(i), nil
		}
	}
	return 0, errMappingsFull
}

// ensure grows the table to cover vpns [lo, hi).
func (as *AddressSpace) ensure(lo, hi uint64) {
	if as.pt == nil {
		as.base = lo
		as.pt = make([]pte, hi-lo)
		return
	}
	end := as.base + uint64(len(as.pt))
	nb, ne := as.base, end
	if lo < nb {
		nb = lo
	}
	if hi > ne {
		ne = hi
	}
	if nb == as.base && ne == end {
		return
	}
	np := make([]pte, ne-nb)
	copy(np[as.base-nb:], as.pt)
	as.base, as.pt = nb, np
}

// Reserve pre-sizes the page table to cover nPages vpages starting at the
// page containing va, without mapping anything. Callers that map many
// views of one layout (core.NewRegion maps n+1 of them back to back)
// reserve the full span once, so the dense table is allocated a single
// time instead of being re-allocated and copied on every MapView.
func (as *AddressSpace) Reserve(va uint64, nPages int) {
	if nPages <= 0 {
		return
	}
	vpn := va / PageSize
	as.ensure(vpn, vpn+uint64(nPages))
}

// SetFaultHandler installs h as the space's fault handler, returning the
// previous handler.
func (as *AddressSpace) SetFaultHandler(h FaultHandler) FaultHandler {
	old := as.handler
	as.handler = h
	return old
}

// MapView maps nPages pages of obj, starting at frame firstFrame, into the
// space at virtual address va with protection prot — the analogue of
// MapViewOfFile. va must be page-aligned. Remapping an already-mapped
// vpage is an error; views never overlap.
func (as *AddressSpace) MapView(va uint64, obj *MemObject, firstFrame, nPages int, prot Prot) error {
	if va%PageSize != 0 {
		return fmt.Errorf("vm: MapView at unaligned address %#x", va)
	}
	if firstFrame < 0 || firstFrame+nPages > obj.NumPages() {
		return fmt.Errorf("vm: MapView frames [%d,%d) out of object range %d",
			firstFrame, firstFrame+nPages, obj.NumPages())
	}
	vpn := va / PageSize
	as.ensure(vpn, vpn+uint64(nPages))
	view := as.pt[vpn-as.base:][:nPages]
	for i := range view {
		if view[i] != 0 {
			return fmt.Errorf("vm: MapView overlaps existing mapping at %#x", (vpn+uint64(i))*PageSize)
		}
	}
	m, err := as.mapIndex(obj, firstFrame-int(vpn))
	if err != nil {
		return err
	}
	for i := range view {
		view[i] = m | pte(prot)<<protShift
	}
	return nil
}

// Protect sets the protection of nPages vpages starting at the page
// containing va — the analogue of VirtualProtect. It affects only these
// vpages; other views of the same frames are untouched, which is the
// property MultiView is built on. Like MapView it validates the whole range
// before it touches any of it: a range with an unmapped page is an error and
// changes no page.
func (as *AddressSpace) Protect(va uint64, nPages int, prot Prot) error {
	vpn := va / PageSize
	if nPages == 1 { // the hot case: the pass that validates the page sets it
		e := as.slot(vpn)
		if e == nil {
			return unmapped(vpn * PageSize)
		}
		*e = e.withProt(prot)
		return nil
	}
	for i := 0; i < nPages; i++ {
		if as.slot(vpn+uint64(i)) == nil {
			return unmapped((vpn + uint64(i)) * PageSize)
		}
	}
	for i := 0; i < nPages; i++ {
		e := &as.pt[vpn+uint64(i)-as.base]
		*e = e.withProt(prot)
	}
	return nil
}

// ProtOf returns the protection of the vpage containing va.
func (as *AddressSpace) ProtOf(va uint64) (Prot, error) {
	e := as.slot(va / PageSize)
	if e == nil {
		return NoAccess, unmapped(va)
	}
	return e.prot(), nil
}

// resolve returns the frame behind the vpage containing va once the page's
// protection allows an access of kind. It is the hit and nothing else (in
// range, mapped, protection sufficient, frame resident): a translation, a
// protection test and a load, as on the paper's MMU. The rest is fault's.
func (as *AddressSpace) resolve(ctx any, va uint64, kind AccessKind) (*[PageSize]byte, error) {
	if vpn := va / PageSize; vpn-as.base < uint64(len(as.pt)) { // wraps past len(as.pt) when va is below the table
		if e := as.pt[vpn-as.base]; e.prot().allows(kind) { // an unmapped entry is zero: NoAccess
			m := &as.maps[e&MaxMappings]
			if f := m.obj.frames[int(vpn)+m.delta]; f != nil {
				return f, nil
			}
		}
	}
	return as.fault(ctx, va, kind)
}

// fault is resolve off the hit path, out of line so the hit stays a leaf: an
// unmapped page is an error, a frame never touched materialises, and an
// insufficient protection is counted and handed to the fault handler in the
// accessing thread's context (ctx), after which the access retries.
//
//go:noinline
func (as *AddressSpace) fault(ctx any, va uint64, kind AccessKind) (*[PageSize]byte, error) {
	for attempt := 0; ; attempt++ {
		e := as.slot(va / PageSize)
		if e == nil {
			return nil, unmapped(va)
		}
		if e.prot().allows(kind) {
			obj, frame := as.target(va/PageSize, *e)
			return obj.frame(frame), nil
		}
		if kind == Write {
			as.WriteFaults++
		} else {
			as.ReadFaults++
		}
		if as.handler == nil {
			return nil, fmt.Errorf("%w: %v", ErrNoHandler, Fault{Addr: va, Kind: kind, Prot: e.prot()})
		}
		if attempt >= maxFaultRetries {
			return nil, fmt.Errorf("%w: %v", ErrFaultStorm, Fault{Addr: va, Kind: kind, Prot: e.prot()})
		}
		if err := as.handler(ctx, Fault{Addr: va, Kind: kind, Prot: e.prot()}); err != nil {
			return nil, err
		}
	}
}

// Access performs a read or write of len(buf) bytes at va through the
// page-protection machinery, invoking the fault handler as needed. For
// reads the bytes are copied into buf; for writes buf is copied into the
// frames. Accesses may span pages (each page is checked independently,
// as the hardware would); one that does not — every Read and Write the
// applications issue — returns after its one copy.
func (as *AddressSpace) Access(ctx any, va uint64, buf []byte, kind AccessKind) error {
	for len(buf) > 0 {
		off := int(va % PageSize)
		n := min(PageSize-off, len(buf))
		f, err := as.resolve(ctx, va, kind)
		if err != nil {
			return err
		}
		if kind == Write {
			copy(f[off:], buf[:n])
		} else {
			copy(buf[:n], f[off:])
		}
		if n == len(buf) {
			return nil
		}
		va += uint64(n)
		buf = buf[n:]
	}
	return nil
}

// Bypass returns the frame bytes for va..va+n ignoring protections — the
// privileged-view path used by DSM server threads. The range must not
// cross a page boundary and must be mapped. The returned slice aliases the
// frame, enabling the paper's zero-copy send/receive.
func (as *AddressSpace) Bypass(va uint64, n int) ([]byte, error) {
	if int(va%PageSize)+n > PageSize {
		return nil, fmt.Errorf("vm: Bypass range at %#x+%d crosses a page boundary", va, n)
	}
	e := as.slot(va / PageSize)
	if e == nil {
		return nil, unmapped(va)
	}
	obj, frame := as.target(va/PageSize, *e)
	off := int(va % PageSize)
	return obj.Frame(frame)[off : off+n], nil
}

// ReadBypass copies len(buf) bytes at va into buf ignoring protections,
// like BypassRange, but reads a frame nothing has touched as the zeros it
// holds instead of materialising it: a demand-zero page shipped out by
// its privileged view costs no memory at the sender.
func (as *AddressSpace) ReadBypass(va uint64, buf []byte) error {
	for len(buf) > 0 {
		e := as.slot(va / PageSize)
		if e == nil {
			return unmapped(va)
		}
		off, n := int(va%PageSize), min(len(buf), PageSize-int(va%PageSize))
		obj, frame := as.target(va/PageSize, *e)
		if f := obj.frames[frame]; f != nil {
			copy(buf[:n], f[off:])
		} else {
			clear(buf[:n])
		}
		buf, va = buf[n:], va+uint64(n)
	}
	return nil
}

// BypassRange is Bypass generalized to page-crossing ranges: it invokes fn
// once per page-contiguous chunk with the chunk's aliased frame bytes.
func (as *AddressSpace) BypassRange(va uint64, n int, fn func(chunk []byte) error) error {
	for n > 0 {
		c := PageSize - int(va%PageSize)
		if c > n {
			c = n
		}
		mem, err := as.Bypass(va, c)
		if err != nil {
			return err
		}
		if err := fn(mem); err != nil {
			return err
		}
		va += uint64(c)
		n -= c
	}
	return nil
}
