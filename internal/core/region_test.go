package core

import (
	"encoding/binary"
	"strings"
	"testing"

	"millipage/internal/vm"
)

func TestRegionErrorPaths(t *testing.T) {
	l := mustLayout(t, 2*vm.PageSize, 2)
	as := vm.NewAddressSpace()
	r, err := NewRegion(l, as, vm.NewFramePool())
	must(t, err)
	// Addresses outside every view are rejected.
	if _, err := r.PrivBytes(0x1, 8); err == nil {
		t.Fatal("PrivBytes accepted a non-view address")
	}
	if err := r.WritePriv(0x1, []byte{1}); err == nil {
		t.Fatal("WritePriv accepted a non-view address")
	}
	if _, err := r.ReadPriv(0x1, 8); err == nil {
		t.Fatal("ReadPriv accepted a non-view address")
	}
	// Protect beyond the object range fails (unmapped vpages).
	end := l.ViewBase(0) + uint64(l.ObjectSize)
	if err := r.Protect(end, 8, vm.ReadOnly); err == nil {
		t.Fatal("Protect past the view accepted")
	}
}

func TestPrivBytesAliasesSinglePage(t *testing.T) {
	l := mustLayout(t, 2*vm.PageSize, 2)
	as := vm.NewAddressSpace()
	r, err := NewRegion(l, as, vm.NewFramePool())
	must(t, err)
	// Within one page: the returned slice aliases the frame (zero copy).
	base := l.AppAddr(1, 100)
	bs, err := r.PrivBytes(base, 16)
	must(t, err)
	bs[0] = 0xEE
	if r.Obj.Frame(0)[100] != 0xEE {
		t.Fatal("single-page PrivBytes is not aliased")
	}
	// Crossing pages: a copy is returned, but contents are correct.
	base2 := l.AppAddr(0, vm.PageSize-8)
	r.Obj.Frame(0)[vm.PageSize-1] = 0x11
	r.Obj.Frame(1)[0] = 0x22
	bs2, err := r.PrivBytes(base2, 16)
	must(t, err)
	if bs2[7] != 0x11 || bs2[8] != 0x22 {
		t.Fatalf("cross-page PrivBytes contents wrong: %x", bs2)
	}
}

// A region costs no frames until something touches it: NewRegion's n+1
// MapViews and the protocol's Protect/ProtOf/Lookup traffic materialise
// nothing, and untouched memory reads as zeros through either path.
func TestRegionIsDemandZero(t *testing.T) {
	l := mustLayout(t, 16*vm.PageSize, 4)
	as := vm.NewAddressSpace()
	r, err := NewRegion(l, as, vm.NewFramePool())
	must(t, err)
	base := l.AppAddr(2, 5*vm.PageSize+40)
	must(t, r.Protect(base, 2*vm.PageSize, vm.ReadOnly))
	if p, err := r.ProtOf(base); err != nil || p != vm.ReadOnly {
		t.Fatalf("ProtOf = %v, %v", p, err)
	}
	if pte, ok := as.Lookup(l.PrivAddr(5 * vm.PageSize)); !ok || pte.Obj != r.Obj || pte.Frame != 5 {
		t.Fatalf("Lookup = %+v, %v", pte, ok)
	}
	if n := r.Obj.Resident(); n != 0 {
		t.Fatalf("%d frames resident in a region nothing has accessed", n)
	}
	got, err := as.ReadAt(nil, base, 64)
	must(t, err)
	priv, err := r.ReadPriv(l.AppAddr(0, 9*vm.PageSize), 64)
	must(t, err)
	for i := range got {
		if got[i] != 0 || priv[i] != 0 {
			t.Fatalf("untouched memory reads %x through the view, %x through ReadPriv", got, priv)
		}
	}
	// The view's read touched its page; the privileged read of another
	// page read zeros and left it untouched.
	if n := r.Obj.Resident(); n != 1 {
		t.Fatalf("%d frames resident after one view read and one privileged read, want 1", n)
	}
}

// Regions on one pool (the hosts of one cluster) have disjoint memory, and
// a frame first touched by an application write is the frame the
// privileged view then serves from.
func TestRegionsOnOnePoolAreDisjoint(t *testing.T) {
	l := mustLayout(t, 4*vm.PageSize, 2)
	pool := vm.NewFramePool()
	var rs [3]*Region
	for h := range rs {
		r, err := NewRegion(l, vm.NewAddressSpace(), pool)
		must(t, err)
		rs[h] = r
	}
	base := l.AppAddr(1, vm.PageSize-4) // straddles pages 0/1
	for h, r := range rs {
		must(t, r.Protect(base, 8, vm.ReadWrite))
		must(t, r.AS.WriteU64(nil, base, 0x1111_1111_1111_1111*uint64(h+1)))
	}
	for h, r := range rs {
		want := 0x1111_1111_1111_1111 * uint64(h+1)
		got, err := r.PrivBytes(base, 8)
		must(t, err)
		if v := binary.LittleEndian.Uint64(got); v != want {
			t.Fatalf("host %d: PrivBytes reads %#x, the application wrote %#x", h, v, want)
		}
		other := l.AppAddr(0, vm.PageSize-4)
		must(t, r.Protect(other, 8, vm.ReadOnly))
		if v, err := r.AS.ReadU64(nil, other); err != nil || v != want {
			t.Fatalf("host %d: view 0 reads %#x (%v), view 1 wrote %#x", h, v, err, want)
		}
	}
}

func TestLayoutVASpanGuardsAddressBudget(t *testing.T) {
	// The paper was limited to about 1.63 GB of views: the layout exposes
	// the span so callers can check it (we do not hard-fail, since the
	// simulated address space is 64-bit). The paper's N=16MB, n=104
	// example is past MaxViews here, so the widest layout stands in.
	l := mustLayout(t, 16<<20, MaxViews)
	span := l.VASpan()
	if span < MaxViews*16<<20 {
		t.Fatalf("VASpan = %d, impossibly small", span)
	}
	if span > 1630<<20 {
		t.Fatalf("VASpan = %d, past the paper's 1.63 GB budget for this configuration", span)
	}
}

// A layout holds at most MaxViews application views: a region maps them
// and the privileged view, one page-table mapping each. At the bound every
// view maps, protects and reads what the privileged view wrote; one past
// it is refused with an error naming Views.
func TestRegionAtMaxViews(t *testing.T) {
	if _, err := NewLayout(2*vm.PageSize, MaxViews+1); err == nil || !strings.Contains(err.Error(), "Views") {
		t.Fatalf("NewLayout with %d views = %v, want an error naming Views", MaxViews+1, err)
	}
	l := mustLayout(t, 2*vm.PageSize, MaxViews)
	r, err := NewRegion(l, vm.NewAddressSpace(), vm.NewFramePool())
	must(t, err)
	const off = vm.PageSize + 24
	must(t, r.WritePriv(l.AppAddr(0, off), []byte{0xC3}))
	for v := 0; v <= MaxViews; v++ {
		va := l.PrivAddr(off)
		if v < MaxViews {
			va = l.AppAddr(v, off)
		}
		if err := r.Protect(va, 1, vm.ReadOnly); err != nil {
			t.Fatalf("view %d: %v", v, err)
		}
		if b, err := r.AS.ReadU8(nil, va); err != nil || b != 0xC3 {
			t.Fatalf("view %d reads %#x, %v; want the privileged write 0xc3", v, b, err)
		}
	}
}

func TestChunkReservationDoesNotLeakAcrossSizes(t *testing.T) {
	l := mustLayout(t, 64*vm.PageSize, 8)
	mpt := NewMPT(l, GrainMinipage, 4)
	a, _, _ := mpt.Alloc(100) // opens a 400-byte reservation
	b, _, _ := mpt.Alloc(100) // joins the chunk
	c, _, _ := mpt.Alloc(600) // different size: new chunk
	if a != b {
		t.Fatal("same-size allocations did not share the chunk")
	}
	if c == a {
		t.Fatal("different-size allocation joined the chunk")
	}
	// The closed chunk never grows again, even for matching sizes.
	d, _, _ := mpt.Alloc(100)
	if d == a {
		t.Fatal("closed chunk reopened")
	}
}

func TestPageGrainLookupAnywhereInAllocation(t *testing.T) {
	l := mustLayout(t, 8*vm.PageSize, 1)
	mpt := NewMPT(l, GrainPage, 1)
	// An allocation spanning pages: every interior address resolves to a
	// page minipage.
	_, va, err := mpt.Alloc(3 * vm.PageSize / 2)
	must(t, err)
	for _, off := range []uint64{0, 17, vm.PageSize - 1, vm.PageSize, vm.PageSize + 99} {
		if _, ok := mpt.Lookup(va + off); !ok {
			t.Fatalf("offset %d did not resolve", off)
		}
	}
}
