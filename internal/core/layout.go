// Package core implements the MultiView technique of the Millipage paper:
// mapping one memory object into several virtual-address views so that
// sub-page objects (minipages) sharing a physical page get independent
// protection through the ordinary virtual-memory mechanism.
//
// The package has three parts:
//
//   - Layout: the pure geometry of the views — where each application view
//     and the privileged view sit in the virtual address space. The paper
//     configures DSM addresses so views map to the same addresses in every
//     process; Layout is that shared configuration.
//
//   - Region: a Layout instantiated on one host — a memory object mapped
//     n+1 times into the host's address space (n application views plus
//     the always-ReadWrite privileged view), with per-minipage protection
//     control.
//
//   - MPT: the minipage table — the allocator and directory geometry kept
//     by the manager host: which <offset, length> region of which view
//     each minipage occupies, with dynamic-layout allocation and the
//     paper's chunking switch.
package core

import (
	"fmt"

	"millipage/internal/vm"
)

// DefaultBase is where the first application view is placed in each
// process's virtual address space. The concrete value is arbitrary; what
// matters is that every host uses the same Layout, so minipage addresses
// need no translation between hosts (Section 2.4 of the paper).
const DefaultBase uint64 = 0x2000_0000

// viewGuard is the unmapped gap left between consecutive views, so stray
// accesses just past a view fault as unmapped rather than silently hitting
// the next view.
const viewGuard = 1 << 20

// Layout describes the view geometry for a shared region: n application
// views plus one privileged view, each mapping the whole memory object,
// at identical addresses in every process.
type Layout struct {
	ObjectSize int    // bytes in the memory object (multiple of page size)
	NumPages   int    // ObjectSize / vm.PageSize
	NumViews   int    // application views (the paper's n)
	Base       uint64 // VA of view 0
	Stride     uint64 // distance between consecutive view bases
}

// MaxViews is the most application views a layout has: a region maps
// them and the privileged view into each host's address space, and a
// one-byte page-table entry names one of vm.MaxMappings mappings.
const MaxViews = vm.MaxMappings - 1

// NewLayout computes the view geometry for a shared region of sharedSize
// bytes with numViews application views, in [1, MaxViews].
func NewLayout(sharedSize, numViews int) (Layout, error) {
	if sharedSize <= 0 {
		return Layout{}, fmt.Errorf("core: shared size %d must be positive", sharedSize)
	}
	if numViews < 1 {
		return Layout{}, fmt.Errorf("core: Views = %d; need at least 1", numViews)
	}
	if numViews > MaxViews {
		return Layout{}, fmt.Errorf("core: Views = %d, more than %d: a one-byte page-table entry names %d mappings, "+
			"one for each view and one for the privileged view", numViews, MaxViews, vm.MaxMappings)
	}
	pages := (sharedSize + vm.PageSize - 1) / vm.PageSize
	objSize := pages * vm.PageSize
	stride := uint64(objSize) + viewGuard
	// Round the stride to a page multiple (it already is: objSize and
	// viewGuard are page multiples), and sanity-check the 32-bit-era
	// address-space budget the paper ran under (about 1.63 GB of user VA).
	l := Layout{
		ObjectSize: objSize,
		NumPages:   pages,
		NumViews:   numViews,
		Base:       DefaultBase,
		Stride:     stride,
	}
	return l, nil
}

// VASpan reports the total virtual address space the layout consumes —
// the quantity that limited the paper's experiments to n <= 1.63GB/N.
func (l Layout) VASpan() uint64 { return uint64(l.NumViews+1) * l.Stride }

// ViewBase returns the base VA of application view i.
func (l Layout) ViewBase(i int) uint64 {
	if i < 0 || i >= l.NumViews {
		panic(fmt.Sprintf("core: view %d out of range [0,%d)", i, l.NumViews))
	}
	return l.Base + uint64(i)*l.Stride
}

// PrivBase returns the base VA of the privileged view.
func (l Layout) PrivBase() uint64 { return l.Base + uint64(l.NumViews)*l.Stride }

// AppAddr returns the VA of object offset off as seen through view i.
func (l Layout) AppAddr(view int, off int) uint64 {
	return l.ViewBase(view) + uint64(off)
}

// PrivAddr returns the VA of object offset off through the privileged
// view — the paper's addr2priv translation.
func (l Layout) PrivAddr(off int) uint64 { return l.PrivBase() + uint64(off) }

// Decompose maps a VA back to (view, offset). ok is false if va does not
// fall inside any application view's object range. The privileged view is
// reported as view == NumViews.
func (l Layout) Decompose(va uint64) (view int, off int, ok bool) {
	if va < l.Base {
		return 0, 0, false
	}
	rel := va - l.Base
	view = int(rel / l.Stride)
	if view > l.NumViews {
		return 0, 0, false
	}
	off64 := rel % l.Stride
	if off64 >= uint64(l.ObjectSize) {
		return 0, 0, false // in the guard gap
	}
	return view, int(off64), true
}

// Region is a Layout realized on one host: a local memory object mapped
// once per view into the host's address space. Application views start
// NoAccess (nothing is present until the DSM protocol brings it in); the
// privileged view is permanently ReadWrite for the DSM server threads.
type Region struct {
	L   Layout
	AS  *vm.AddressSpace
	Obj *vm.MemObject
}

// NewRegion creates the host-local memory object, its frames drawn from
// pool on first touch, and maps all views. Every host of a cluster passes
// the same pool, so the cluster's memory follows the pages its hosts touch.
func NewRegion(l Layout, as *vm.AddressSpace, pool *vm.FramePool) (*Region, error) {
	obj := pool.NewMemObject(l.ObjectSize)
	// Reserve the whole span (view 0 through the privileged view) up
	// front: mapping n+1 views one at a time would otherwise re-allocate
	// and copy the dense page table once per view.
	span := int((l.PrivBase()-l.Base)/vm.PageSize) + l.NumPages
	as.Reserve(l.Base, span)
	for i := 0; i < l.NumViews; i++ {
		if err := as.MapView(l.ViewBase(i), obj, 0, l.NumPages, vm.NoAccess); err != nil {
			return nil, fmt.Errorf("core: mapping view %d: %w", i, err)
		}
	}
	if err := as.MapView(l.PrivBase(), obj, 0, l.NumPages, vm.ReadWrite); err != nil {
		return nil, fmt.Errorf("core: mapping privileged view: %w", err)
	}
	return &Region{L: l, AS: as, Obj: obj}, nil
}

// pageSpan returns the vpage-aligned VA and page count covering
// [base, base+size).
func pageSpan(base uint64, size int) (va uint64, nPages int) {
	va = base &^ uint64(vm.PageSize-1)
	end := base + uint64(size)
	nPages = int((end - va + vm.PageSize - 1) / vm.PageSize)
	return va, nPages
}

// Protect sets the protection of every vpage covering the minipage at
// app-view address base with the given size. Only the minipage's own view
// is touched; all other views of the same frames keep their protections —
// the property MultiView exists to provide.
func (r *Region) Protect(base uint64, size int, prot vm.Prot) error {
	va, n := pageSpan(base, size)
	return r.AS.Protect(va, n, prot)
}

// ProtOf returns the protection of the vpage containing the app-view
// address base.
func (r *Region) ProtOf(base uint64) (vm.Prot, error) { return r.AS.ProtOf(base) }

// PrivBytes returns the minipage's backing bytes via the privileged view,
// aliased (zero copy), given its app-view base address and size. It is
// how DSM server threads read and write minipage contents regardless of
// the application-view protections.
func (r *Region) PrivBytes(base uint64, size int) ([]byte, error) {
	_, off, ok := r.L.Decompose(base)
	if !ok {
		return nil, fmt.Errorf("core: %#x is not a view address", base)
	}
	var out []byte
	err := r.AS.BypassRange(r.L.PrivAddr(off), size, func(chunk []byte) error {
		if out == nil && len(chunk) == size {
			out = chunk // common case: within one page, alias directly
			return nil
		}
		out = append(out, chunk...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WritePriv copies data into the minipage at app-view address base via the
// privileged view — the paper's atomic user-mode minipage update: the
// application views can be NoAccess while this proceeds.
func (r *Region) WritePriv(base uint64, data []byte) error {
	_, off, ok := r.L.Decompose(base)
	if !ok {
		return fmt.Errorf("core: %#x is not a view address", base)
	}
	i := 0
	return r.AS.BypassRange(r.L.PrivAddr(off), len(data), func(chunk []byte) error {
		copy(chunk, data[i:])
		i += len(chunk)
		return nil
	})
}

// ReadPriv copies the minipage at app-view address base out via the
// privileged view.
func (r *Region) ReadPriv(base uint64, size int) ([]byte, error) {
	buf := make([]byte, size)
	if err := r.ReadPrivInto(base, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadPrivInto copies len(buf) bytes of the minipage at app-view address
// base into buf via the privileged view — the allocation-free form of
// ReadPriv for callers with a reusable scratch buffer. Pages nothing has
// touched read as zeros and stay untouched.
func (r *Region) ReadPrivInto(base uint64, buf []byte) error {
	_, off, ok := r.L.Decompose(base)
	if !ok {
		return fmt.Errorf("core: %#x is not a view address", base)
	}
	return r.AS.ReadBypass(r.L.PrivAddr(off), buf)
}
