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
// access or Bypass that reaches it). Mapping, protecting and looking up
// pages touch nothing.
type MemObject struct {
	pool     *FramePool
	frames   []*[PageSize]byte // nil until first touch
	resident int
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

// Resident reports how many of the object's frames have been touched and
// so occupy memory.
func (mo *MemObject) Resident() int { return mo.resident }

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
	mo.resident++
	return f
}

// PTE is one page-table entry as Lookup reports it: which frame of which
// object a virtual page maps, and with what protection.
type PTE struct {
	Obj   *MemObject
	Frame int
	Prot  Prot
}

// pte is a PTE as the page table stores it, packed into 4 bytes as the
// paper's Pentium II packed its own: the frame in the low frameBits, the
// object index above it, the protection in the top two bits. The dense
// table spans every view and the guard gaps between them, so its entry
// size is most of a host's fixed footprint. The zero entry is unmapped
// (object index 0).
type pte uint32

const (
	frameBits = 22
	objBits   = 8
	protShift = frameBits + objBits

	// maxFrame is the largest frame index a page-table entry holds (an
	// object of up to 16 GB); MapView rejects a view past it.
	maxFrame = 1<<frameBits - 1
	// maxObjects is how many memory objects one address space can map;
	// MapView rejects the next.
	maxObjects = 1<<objBits - 1
)

func packPTE(frame int, obj uint32, prot Prot) pte {
	return pte(frame) | pte(obj)<<frameBits | pte(prot)<<protShift
}

func (e pte) frame() int  { return int(e & maxFrame) }
func (e pte) obj() uint32 { return uint32(e>>frameBits) & maxObjects }
func (e pte) prot() Prot  { return Prot(e >> protShift) }

// withProt returns e with its protection set to prot.
func (e pte) withProt(prot Prot) pte { return e&(1<<protShift-1) | pte(prot)<<protShift }

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
	base    uint64        // vpn of pt[0]
	pt      []pte         // dense page table
	objs    []*MemObject  // the objects pt's entries index; objs[0] is nil
	objs0   [2]*MemObject // backs objs while one object is mapped: no allocation per host
	handler FaultHandler

	// Counters, read by the DSM statistics layer.
	ReadFaults  uint64
	WriteFaults uint64
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{}
}

// slot returns the live entry for vpn, or nil if the page is unmapped.
func (as *AddressSpace) slot(vpn uint64) *pte {
	i := vpn - as.base // wraps past len(as.pt) when vpn < as.base
	if i >= uint64(len(as.pt)) {
		return nil
	}
	e := &as.pt[i]
	if e.obj() == 0 {
		return nil
	}
	return e
}

// objIndex returns obj's index in the space's object list, adding it if
// this is its first view here.
func (as *AddressSpace) objIndex(obj *MemObject) (uint32, error) {
	for i, o := range as.objs {
		if o == obj {
			return uint32(i), nil
		}
	}
	if len(as.objs) == 0 {
		as.objs = as.objs0[:1] // index 0 marks an unmapped slot
	}
	if len(as.objs) > maxObjects {
		return 0, fmt.Errorf("vm: MapView of more than %d objects into one address space", maxObjects)
	}
	as.objs = append(as.objs, obj)
	return uint32(len(as.objs) - 1), nil
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
	if firstFrame+nPages-1 > maxFrame {
		return fmt.Errorf("vm: MapView frames [%d,%d) past the largest frame a page-table entry holds, %d",
			firstFrame, firstFrame+nPages, maxFrame)
	}
	oi, err := as.objIndex(obj)
	if err != nil {
		return err
	}
	vpn := va / PageSize
	as.ensure(vpn, vpn+uint64(nPages))
	view := as.pt[vpn-as.base:][:nPages]
	for i := range view {
		if view[i].obj() != 0 {
			return fmt.Errorf("vm: MapView overlaps existing mapping at %#x", (vpn+uint64(i))*PageSize)
		}
	}
	for i := range view {
		view[i] = packPTE(firstFrame+i, oi, prot)
	}
	return nil
}

// Unmap removes nPages mappings starting at page-aligned va.
func (as *AddressSpace) Unmap(va uint64, nPages int) {
	vpn := va / PageSize
	for i := 0; i < nPages; i++ {
		if p := vpn + uint64(i); p >= as.base && p < as.base+uint64(len(as.pt)) {
			as.pt[p-as.base] = 0
		}
	}
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

// Lookup returns the PTE of the vpage containing va, if mapped. The
// returned struct is a copy; use Protect to change protections.
func (as *AddressSpace) Lookup(va uint64) (PTE, bool) {
	e := as.slot(va / PageSize)
	if e == nil {
		return PTE{}, false
	}
	return PTE{Obj: as.objs[e.obj()], Frame: e.frame(), Prot: e.prot()}, true
}

// Mapped reports whether the vpage containing va is mapped.
func (as *AddressSpace) Mapped(va uint64) bool {
	return as.slot(va/PageSize) != nil
}

// resolve returns the frame behind the vpage containing va once the page's
// protection allows an access of kind. It is the hit and nothing else (in
// range, mapped, protection sufficient, frame resident): a translation, a
// protection test and a load, as on the paper's MMU. The rest is fault's.
func (as *AddressSpace) resolve(ctx any, va uint64, kind AccessKind) (*[PageSize]byte, error) {
	if i := va/PageSize - as.base; i < uint64(len(as.pt)) { // wraps past len(as.pt) when va is below the table
		if e := as.pt[i]; e.prot().allows(kind) { // an unmapped entry is zero: NoAccess
			if f := as.objs[e.obj()].frames[e.frame()]; f != nil {
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
			return as.objs[e.obj()].frame(e.frame()), nil
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

// ReadAt copies n bytes at va into a new slice, faulting as needed.
func (as *AddressSpace) ReadAt(ctx any, va uint64, n int) ([]byte, error) {
	buf := make([]byte, n)
	if err := as.Access(ctx, va, buf, Read); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteAt writes data at va, faulting as needed.
func (as *AddressSpace) WriteAt(ctx any, va uint64, data []byte) error {
	// Access never modifies buf on writes, but takes []byte for symmetry.
	return as.Access(ctx, va, data, Write)
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
	off := int(va % PageSize)
	return as.objs[e.obj()].Frame(e.frame())[off : off+n], nil
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
		if f := as.objs[e.obj()].frames[e.frame()]; f != nil {
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
