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
	if err := r.WritePriv(0x1, []byte{1}); err == nil {
		t.Fatal("WritePriv accepted a non-view address")
	}
	if err := r.ReadPrivInto(0x1, make([]byte, 8)); err == nil {
		t.Fatal("ReadPrivInto accepted a non-view address")
	}
	// Protect beyond the object range fails (unmapped vpages).
	end := l.ViewBase(0) + uint64(l.ObjectSize)
	if err := r.Protect(end, 8, vm.ReadOnly); err == nil {
		t.Fatal("Protect past the view accepted")
	}
}

// Untouched memory reads as zeros through either path: an application
// view and the privileged view.
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
	got, priv := make([]byte, 64), make([]byte, 64)
	must(t, as.Access(nil, base, got, vm.Read))
	must(t, r.ReadPrivInto(l.AppAddr(0, 9*vm.PageSize), priv))
	for i := range got {
		if got[i] != 0 || priv[i] != 0 {
			t.Fatalf("untouched memory reads %x through the view, %x through ReadPrivInto", got, priv)
		}
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
		got := make([]byte, 8)
		must(t, r.ReadPrivInto(base, got))
		if v := binary.LittleEndian.Uint64(got); v != want {
			t.Fatalf("host %d: ReadPrivInto reads %#x, the application wrote %#x", h, v, want)
		}
		other := l.AppAddr(0, vm.PageSize-4)
		must(t, r.Protect(other, 8, vm.ReadOnly))
		if v, err := r.AS.ReadU64(nil, other); err != nil || v != want {
			t.Fatalf("host %d: view 0 reads %#x (%v), view 1 wrote %#x", h, v, err, want)
		}
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
		b := make([]byte, 1)
		if err := r.AS.Access(nil, va, b, vm.Read); err != nil || b[0] != 0xC3 {
			t.Fatalf("view %d reads %#x, %v; want the privileged write 0xc3", v, b[0], err)
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
