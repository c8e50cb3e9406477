package core

import (
	"errors"
	"testing"
	"testing/quick"

	"millipage/internal/vm"
)

// must fails the test if err is not nil.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func mustLayout(t *testing.T, size, views int) Layout {
	t.Helper()
	l, err := NewLayout(size, views)
	must(t, err)
	return l
}

func TestLayoutGeometry(t *testing.T) {
	l := mustLayout(t, 100_000, 4)
	if l.ObjectSize%vm.PageSize != 0 || l.ObjectSize < 100_000 {
		t.Fatalf("ObjectSize = %d", l.ObjectSize)
	}
	if l.NumPages != l.ObjectSize/vm.PageSize {
		t.Fatalf("NumPages = %d", l.NumPages)
	}
	// Views must not overlap.
	for i := 0; i < l.NumViews; i++ {
		end := l.ViewBase(i) + uint64(l.ObjectSize)
		next := l.PrivBase()
		if i+1 < l.NumViews {
			next = l.ViewBase(i + 1)
		}
		if end > next {
			t.Fatalf("view %d [%#x,%#x) overlaps next at %#x", i, l.ViewBase(i), end, next)
		}
	}
}

func TestLayoutDecomposeRoundTrip(t *testing.T) {
	l := mustLayout(t, 64*vm.PageSize, 7)
	for view := 0; view < l.NumViews; view++ {
		for _, off := range []int{0, 1, vm.PageSize - 1, vm.PageSize, l.ObjectSize - 1} {
			v, o, ok := l.Decompose(l.AppAddr(view, off))
			if !ok || v != view || o != off {
				t.Fatalf("Decompose(AppAddr(%d,%d)) = (%d,%d,%v)", view, off, v, o, ok)
			}
		}
	}
	// Privileged view decomposes as view == NumViews.
	v, o, ok := l.Decompose(l.PrivAddr(123))
	if !ok || v != l.NumViews || o != 123 {
		t.Fatalf("Decompose(priv) = (%d,%d,%v)", v, o, ok)
	}
	// Guard gap addresses do not decompose.
	if _, _, ok := l.Decompose(l.ViewBase(0) + uint64(l.ObjectSize) + 1); ok {
		t.Fatal("guard-gap address decomposed")
	}
	if _, _, ok := l.Decompose(l.Base - 1); ok {
		t.Fatal("address below base decomposed")
	}
}

func TestRegionMapsAllViews(t *testing.T) {
	l := mustLayout(t, 4*vm.PageSize, 3)
	as := vm.NewAddressSpace()
	r, err := NewRegion(l, as, vm.NewFramePool())
	must(t, err)
	for i := 0; i < 3; i++ {
		if p, err := as.ProtOf(l.ViewBase(i)); err != nil || p != vm.NoAccess {
			t.Fatalf("view %d prot = %v, %v", i, p, err)
		}
	}
	if p, err := as.ProtOf(l.PrivBase()); err != nil || p != vm.ReadWrite {
		t.Fatalf("priv prot = %v, %v", p, err)
	}
	// All views alias the same object.
	r.Obj.Frame(1)[5] = 0x7E
	for i := 0; i < 3; i++ {
		if mem, err := as.Bypass(l.ViewBase(i)+vm.PageSize+5, 1); err != nil || mem[0] != 0x7E {
			t.Fatalf("view %d page 1 reads %x, %v; want its frame 1", i, mem, err)
		}
	}
}

func TestRegionProtectIsPerView(t *testing.T) {
	l := mustLayout(t, 2*vm.PageSize, 3)
	as := vm.NewAddressSpace()
	r, err := NewRegion(l, as, vm.NewFramePool())
	must(t, err)
	// A 100-byte minipage in view 1, page 0.
	base := l.AppAddr(1, 50)
	must(t, r.Protect(base, 100, vm.ReadWrite))
	if p, _ := as.ProtOf(l.ViewBase(1)); p != vm.ReadWrite {
		t.Fatal("view 1 page 0 not upgraded")
	}
	for _, v := range []int{0, 2} {
		if p, _ := as.ProtOf(l.ViewBase(v)); p != vm.NoAccess {
			t.Fatalf("view %d page 0 affected by view 1 protect", v)
		}
	}
	// A minipage straddling pages protects both vpages.
	base2 := l.AppAddr(0, vm.PageSize-10)
	must(t, r.Protect(base2, 20, vm.ReadOnly))
	if p, _ := as.ProtOf(l.ViewBase(0)); p != vm.ReadOnly {
		t.Fatal("first vpage not protected")
	}
	if p, _ := as.ProtOf(l.ViewBase(0) + vm.PageSize); p != vm.ReadOnly {
		t.Fatal("second vpage not protected")
	}
}

func TestPrivViewReadWrite(t *testing.T) {
	l := mustLayout(t, 2*vm.PageSize, 2)
	as := vm.NewAddressSpace()
	r, err := NewRegion(l, as, vm.NewFramePool())
	must(t, err)
	base := l.AppAddr(1, 4090) // straddles page 0/1
	must(t, r.WritePriv(base, []byte("0123456789AB")))
	got := make([]byte, 12)
	must(t, r.ReadPrivInto(base, got))
	if string(got) != "0123456789AB" {
		t.Fatalf("got %q", got)
	}
	// And the app view aliases it (once readable).
	must(t, r.Protect(base, 12, vm.ReadOnly))
	buf := make([]byte, 12)
	must(t, as.Access(nil, base, buf, vm.Read))
	if string(buf) != "0123456789AB" {
		t.Fatalf("app view sees %q", buf)
	}
}

func TestAllocAssignsDistinctViewsPerPage(t *testing.T) {
	l := mustLayout(t, 16*vm.PageSize, 16)
	mpt := NewMPT(l, GrainMinipage, 1)
	// 256-byte allocations: 16 per page, one view each (the SOR shape).
	seen := map[[2]int]bool{} // (page, view) pairs must be unique
	for i := 0; i < 64; i++ {
		mp, va, err := mpt.Alloc(256)
		must(t, err)
		if mp.Size != 256 {
			t.Fatalf("size = %d", mp.Size)
		}
		key := [2]int{mp.Off / vm.PageSize, mp.View}
		if seen[key] {
			t.Fatalf("duplicate (page,view) = %v", key)
		}
		seen[key] = true
		// The returned VA resolves back to the same minipage.
		got, ok := mpt.Lookup(va)
		if !ok || got != mp {
			t.Fatalf("Lookup(va) = %v, %v", got, ok)
		}
	}
	if mpt.ViewsUsed() != 16 {
		t.Fatalf("ViewsUsed = %d, want 16", mpt.ViewsUsed())
	}
}

func TestAllocNeverStraddlesForSmall(t *testing.T) {
	// 672-byte molecules (WATER): 6 per page, the 7th opens a new page.
	l := mustLayout(t, 128*vm.PageSize, 8)
	mpt := NewMPT(l, GrainMinipage, 1)
	for i := 0; i < 100; i++ {
		mp, _, err := mpt.Alloc(672)
		must(t, err)
		first := mp.Off / vm.PageSize
		last := (mp.Off + mp.Size - 1) / vm.PageSize
		if first != last {
			t.Fatalf("alloc %d straddles pages %d..%d", i, first, last)
		}
	}
	if mpt.ViewsUsed() != 6 {
		t.Fatalf("ViewsUsed = %d, want 6 (WATER's Table 2 value)", mpt.ViewsUsed())
	}
}

func TestAllocLargeTakesExclusivePages(t *testing.T) {
	// 4 KB LU blocks: one view, page-aligned.
	l := mustLayout(t, 64*vm.PageSize, 4)
	mpt := NewMPT(l, GrainMinipage, 1)
	for i := 0; i < 8; i++ {
		mp, _, err := mpt.Alloc(4096)
		must(t, err)
		if mp.Off%vm.PageSize != 0 {
			t.Fatalf("large alloc not page aligned: off=%d", mp.Off)
		}
		if mp.View != 0 {
			t.Fatalf("large alloc view = %d, want 0", mp.View)
		}
	}
	if mpt.ViewsUsed() != 1 {
		t.Fatalf("ViewsUsed = %d, want 1 (LU's Table 2 value)", mpt.ViewsUsed())
	}
	// A multi-page allocation spans contiguous exclusive pages.
	mp, _, err := mpt.Alloc(3 * vm.PageSize)
	must(t, err)
	if mp.Size != 3*vm.PageSize || mp.Off%vm.PageSize != 0 {
		t.Fatalf("multi-page alloc = %+v", mp)
	}
}

func TestChunkingAggregatesAllocations(t *testing.T) {
	l := mustLayout(t, 512*vm.PageSize, 8)
	mpt := NewMPT(l, GrainMinipage, 4)
	// 672-byte molecules at chunking level 4: every 4 allocations share a
	// minipage of 2688 bytes (the paper's optimal WATER configuration).
	var mps []*Minipage
	for i := 0; i < 16; i++ {
		mp, va, err := mpt.Alloc(672)
		must(t, err)
		if got, ok := mpt.Lookup(va); !ok || got != mp {
			t.Fatalf("lookup mismatch at alloc %d", i)
		}
		if len(mps) == 0 || mps[len(mps)-1] != mp {
			mps = append(mps, mp)
		}
	}
	if len(mps) != 4 {
		t.Fatalf("16 allocations became %d minipages, want 4", len(mps))
	}
	for _, mp := range mps {
		if mp.Size != 4*672 {
			t.Fatalf("chunk size = %d, want %d", mp.Size, 4*672)
		}
	}
}

func TestChunkClosesOnSizeChange(t *testing.T) {
	l := mustLayout(t, 64*vm.PageSize, 8)
	mpt := NewMPT(l, GrainMinipage, 4)
	a, _, _ := mpt.Alloc(100)
	b, _, _ := mpt.Alloc(200) // different size: new chunk
	if a == b {
		t.Fatal("different-size allocations shared a chunk")
	}
}

func TestPageGrainMode(t *testing.T) {
	l := mustLayout(t, 8*vm.PageSize, 1)
	mpt := NewMPT(l, GrainPage, 1)
	// Allocations pack with no regard for boundaries; sharing unit = page.
	seen := map[*Minipage]bool{}
	for i := 0; i < 40; i++ { // 40 * 672 = 26880 bytes over 7 pages
		mp, va, err := mpt.Alloc(672)
		must(t, err)
		seen[mp] = true
		if mp.Size != vm.PageSize {
			t.Fatalf("page-grain minipage size = %d", mp.Size)
		}
		if got, ok := mpt.Lookup(va); !ok || got != mp {
			t.Fatalf("lookup mismatch at alloc %d", i)
		}
	}
	if len(seen) != 7 {
		t.Fatalf("40 x 672B allocations touched %d page-minipages, want 7", len(seen))
	}
	if mpt.ViewsUsed() != 1 {
		t.Fatalf("ViewsUsed = %d, want 1", mpt.ViewsUsed())
	}
}

func TestAllocExhaustion(t *testing.T) {
	l := mustLayout(t, 2*vm.PageSize, 2)
	mpt := NewMPT(l, GrainMinipage, 1)
	for i := 0; i < 2; i++ {
		if _, _, err := mpt.Alloc(vm.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := mpt.Alloc(8); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestViewLimitOpensNewPage(t *testing.T) {
	// With 2 views, a page can host at most 2 minipages: the third small
	// allocation must move to a fresh page even though bytes remain.
	l := mustLayout(t, 2*vm.PageSize, 2)
	mpt := NewMPT(l, GrainMinipage, 1)
	a, _, _ := mpt.Alloc(8)
	b, _, _ := mpt.Alloc(8)
	c, _, err := mpt.Alloc(8)
	must(t, err)
	if a.Off/vm.PageSize != 0 || b.Off/vm.PageSize != 0 {
		t.Fatalf("first two allocations not on page 0: %d %d", a.Off, b.Off)
	}
	if c.Off/vm.PageSize != 1 {
		t.Fatalf("third allocation on page %d, want 1 (view slots exhausted)", c.Off/vm.PageSize)
	}
	if a.View == b.View || c.View != 0 {
		t.Fatalf("views = %d,%d,%d", a.View, b.View, c.View)
	}
	// Page 1 takes one more, then the object is exhausted.
	if _, _, err := mpt.Alloc(8); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mpt.Alloc(8); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestLookupRejectsWrongView(t *testing.T) {
	l := mustLayout(t, 4*vm.PageSize, 4)
	mpt := NewMPT(l, GrainMinipage, 1)
	mp, va, err := mpt.Alloc(64)
	must(t, err)
	// Same offset through a different view is not this minipage's address.
	otherView := (mp.View + 1) % l.NumViews
	_, off, _ := l.Decompose(va)
	if _, ok := mpt.Lookup(l.AppAddr(otherView, off)); ok {
		t.Fatal("lookup through wrong view succeeded")
	}
	if _, ok := mpt.Lookup(l.PrivAddr(off)); ok {
		t.Fatal("lookup through privileged view succeeded")
	}
}

func TestMinipageInfoTranslation(t *testing.T) {
	l := mustLayout(t, 4*vm.PageSize, 4)
	mpt := NewMPT(l, GrainMinipage, 1)
	mp, va, err := mpt.Alloc(128)
	must(t, err)
	info := mp.Info(l)
	if info.Base != va {
		t.Fatalf("info.Base = %#x, va = %#x", info.Base, va)
	}
	if info.Size != 128 || info.ID != mp.ID {
		t.Fatalf("info = %+v", info)
	}
	// addr2priv: same offset, privileged view.
	_, off, _ := l.Decompose(va)
	if info.Priv != l.PrivAddr(off) {
		t.Fatalf("info.Priv = %#x, want %#x", info.Priv, l.PrivAddr(off))
	}
}

// Property: allocations never overlap in object offsets, every returned
// address looks up to its own minipage, and no (page, view) pair is used
// by two single-page minipages — for random allocation-size sequences.
func TestAllocatorInvariantsProperty(t *testing.T) {
	f := func(sizes []uint16, chunkLevel uint8) bool {
		l, err := NewLayout(256*vm.PageSize, 32)
		if err != nil {
			return false
		}
		cl := int(chunkLevel%4) + 1
		mpt := NewMPT(l, GrainMinipage, cl)
		type span struct{ lo, hi, id int }
		var spans []span
		byID := map[int]span{}
		for _, s16 := range sizes {
			size := int(s16)%3000 + 1
			mp, va, err := mpt.Alloc(size)
			if err != nil {
				break // exhaustion is fine
			}
			got, ok := mpt.Lookup(va)
			if !ok || got != mp {
				return false
			}
			// Track the grown extent of each minipage by ID.
			byID[mp.ID] = span{mp.Off, mp.Off + mp.Size, mp.ID}
		}
		for _, s := range byID {
			spans = append(spans, s)
		}
		for i := range spans {
			for j := range spans {
				if i == j {
					continue
				}
				a, b := spans[i], spans[j]
				if a.lo < b.hi && b.lo < a.hi {
					return false // overlap
				}
			}
		}
		// (page, view) uniqueness across minipages.
		type pv struct{ p, v int }
		seen := map[pv]int{}
		for _, mp := range mpt.mps {
			first := mp.Off / vm.PageSize
			last := (mp.Off + mp.Size - 1) / vm.PageSize
			for p := first; p <= last; p++ {
				key := pv{p, mp.View}
				if owner, dup := seen[key]; dup && owner != mp.ID {
					return false
				}
				seen[key] = mp.ID
			}
		}
		return true
	}
	must(t, quick.Check(f, &quick.Config{MaxCount: 120}))
}
