package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestMemObjectRoundsUpToPages(t *testing.T) {
	mo := NewMemObject(PageSize + 1)
	if mo.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", mo.NumPages())
	}
	if mo.Size() != 2*PageSize {
		t.Fatalf("Size = %d, want %d", mo.Size(), 2*PageSize)
	}
}

func TestMapViewAndAccess(t *testing.T) {
	mo := NewMemObject(4 * PageSize)
	as := NewAddressSpace()
	const base = 0x10000
	if err := as.MapView(base, mo, 0, 4, ReadWrite); err != nil {
		t.Fatal(err)
	}
	want := []byte("hello, millipage")
	if err := as.WriteAt(nil, base+100, want); err != nil {
		t.Fatal(err)
	}
	got, err := as.ReadAt(nil, base+100, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestMapViewRejectsUnaligned(t *testing.T) {
	mo := NewMemObject(PageSize)
	as := NewAddressSpace()
	if err := as.MapView(0x10001, mo, 0, 1, ReadWrite); err == nil {
		t.Fatal("unaligned MapView succeeded")
	}
}

func TestMapViewRejectsOverlap(t *testing.T) {
	mo := NewMemObject(2 * PageSize)
	as := NewAddressSpace()
	if err := as.MapView(0x10000, mo, 0, 2, ReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := as.MapView(0x11000, mo, 0, 1, ReadWrite); err == nil {
		t.Fatal("overlapping MapView succeeded")
	}
}

func TestMapViewRejectsFrameRange(t *testing.T) {
	mo := NewMemObject(2 * PageSize)
	as := NewAddressSpace()
	if err := as.MapView(0x10000, mo, 1, 2, ReadWrite); err == nil {
		t.Fatal("out-of-range frames accepted")
	}
}

// TestPTEPacking pins the page-table entry at one byte and holds MapView
// to what the byte can name: MaxMappings distinct (object, offset)
// mappings each map, protect, look up and unmap like any other; the next
// is an error that maps nothing, never a wrap onto another mapping; at the
// cap a remap of a pair the table holds still succeeds; and a frame index
// is no longer bounded by the entry, so a view past the old 2^22-frame
// limit maps like the first.
func TestPTEPacking(t *testing.T) {
	if sz := unsafe.Sizeof(pte(0)); sz != 1 {
		t.Fatalf("page-table entry is %d bytes, want 1", sz)
	}
	const va = 0x10000
	as := NewAddressSpace()
	objs := make([]*MemObject, MaxMappings)
	page := func(i int) uint64 { return va + uint64(2*i)*PageSize } // a gap between views
	for i := range objs {
		objs[i] = NewMemObject(PageSize)
		if i%2 == 1 { // odd ones share an object at distinct offsets
			objs[i] = objs[i-1]
		}
		if err := as.MapView(page(i), objs[i], 0, 1, NoAccess); err != nil {
			t.Fatalf("MapView of mapping %d: %v", i+1, err)
		}
	}
	for i, mo := range objs {
		if e, ok := as.Lookup(page(i)); !ok || e.Obj != mo || e.Frame != 0 || e.Prot != NoAccess {
			t.Fatalf("mapping %d: Lookup = %+v, %v; want frame 0 of its object, NoAccess", i+1, e, ok)
		}
		if err := as.Protect(page(i), 1, ReadWrite); err != nil {
			t.Fatal(err)
		}
		if err := as.WriteU32(nil, page(i)+4*uint64(i%2), uint32(i)); err != nil {
			t.Fatal(err)
		}
		if e, ok := as.Lookup(page(i)); !ok || e.Obj != mo || e.Prot != ReadWrite {
			t.Fatalf("mapping %d: Lookup after Protect = %+v, %v; want ReadWrite", i+1, e, ok)
		}
	}
	for i, mo := range objs {
		if got := binary.LittleEndian.Uint32(mo.Frame(0)[4*(i%2):]); got != uint32(i) {
			t.Fatalf("mapping %d: its frame holds %d, want the write through its view", i+1, got)
		}
	}

	last := page(MaxMappings)
	if err := as.MapView(last, NewMemObject(PageSize), 0, 1, ReadOnly); !errors.Is(err, errMappingsFull) {
		t.Fatalf("MapView of mapping %d = %v, want the full-table error", MaxMappings+1, err)
	}
	if as.Mapped(last) {
		t.Fatal("a rejected MapView mapped a page")
	}

	as.Unmap(page(3), 1)
	if _, ok := as.Lookup(page(3)); ok || as.Mapped(page(3)) {
		t.Fatal("page still mapped after Unmap")
	}
	if _, err := as.ReadU8(nil, page(3)); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("read of an unmapped page = %v, want ErrUnmapped", err)
	}
	if err := as.MapView(page(3), objs[3], 0, 1, ReadOnly); err != nil {
		t.Fatalf("remap of a pair the full table holds: %v", err)
	}
	if v, err := as.ReadU32(nil, page(3)+4); err != nil || v != 3 {
		t.Fatalf("read through the remapped view = %d, %v; want 3", v, err)
	}
	for i := range objs {
		as.Unmap(page(i), 1)
		if _, ok := as.Lookup(page(i)); ok || as.Mapped(page(i)) {
			t.Fatalf("mapping %d: page still mapped after Unmap", i+1)
		}
	}

	const oldLimit = 1 << 22                       // frames an entry held when it packed its frame
	big := NewMemObject((oldLimit + 2) * PageSize) // demand-zero: only the frame touched below is allocated
	far := NewAddressSpace()
	if err := far.MapView(va, big, oldLimit, 2, ReadWrite); err != nil {
		t.Fatalf("MapView of frames [%d,%d): %v", oldLimit, oldLimit+2, err)
	}
	if err := far.WriteAt(nil, va+PageSize+8, []byte("top")); err != nil {
		t.Fatal(err)
	}
	if e, ok := far.Lookup(va + PageSize); !ok || e.Obj != big || e.Frame != oldLimit+1 {
		t.Fatalf("Lookup = %+v, %v; want frame %d", e, ok, oldLimit+1)
	}
	if got := big.Frame(oldLimit + 1)[8:11]; string(got) != "top" || big.Resident() != 1 {
		t.Fatalf("frame %d holds %q (%d resident), want the write through its view alone", oldLimit+1, got, big.Resident())
	}
}

// The heart of MultiView: two views of the same frames alias each other,
// but their protections are independent.
func TestViewAliasingWithIndependentProtection(t *testing.T) {
	mo := NewMemObject(PageSize)
	as := NewAddressSpace()
	const v1, v2 = 0x10000, 0x20000
	if err := as.MapView(v1, mo, 0, 1, ReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := as.MapView(v2, mo, 0, 1, ReadOnly); err != nil {
		t.Fatal(err)
	}
	// The frame's first touch is the write through view1: the frame it
	// materialises must be the one view2 and Bypass then find.
	if mo.Resident() != 0 {
		t.Fatalf("%d frames resident before any access", mo.Resident())
	}
	if err := as.WriteAt(nil, v1+8, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	b, err := as.ReadU8(nil, v2+8)
	if err != nil {
		t.Fatal(err)
	}
	if b != 0xAB {
		t.Fatalf("write through view1 not visible through view2: got %#x", b)
	}
	if mem, err := as.Bypass(v2+8, 1); err != nil || mem[0] != 0xAB {
		t.Fatalf("write through view1 not visible through Bypass: %v, %v", mem, err)
	}
	if mo.Resident() != 1 {
		t.Fatalf("%d frames resident after touching one page through two views", mo.Resident())
	}
	// view2 is ReadOnly: a write must fault, and with no handler, error.
	if err := as.WriteAt(nil, v2+8, []byte{1}); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("write through ReadOnly view: err = %v, want ErrNoHandler", err)
	}
	// view1 keeps its own protection.
	if p, _ := as.ProtOf(v1); p != ReadWrite {
		t.Fatalf("view1 prot = %v, want ReadWrite", p)
	}
}

func TestFaultHandlerUpgradesProtection(t *testing.T) {
	mo := NewMemObject(PageSize)
	as := NewAddressSpace()
	const base = 0x10000
	if err := as.MapView(base, mo, 0, 1, NoAccess); err != nil {
		t.Fatal(err)
	}
	var faults []Fault
	as.SetFaultHandler(func(ctx any, f Fault) error {
		faults = append(faults, f)
		switch f.Kind {
		case Read:
			return as.Protect(f.Addr, 1, ReadOnly)
		default:
			return as.Protect(f.Addr, 1, ReadWrite)
		}
	})
	if _, err := as.ReadU8(nil, base+5); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU8(nil, base+5, 9); err != nil {
		t.Fatal(err)
	}
	if len(faults) != 2 {
		t.Fatalf("faults = %d, want 2 (one read upgrade, one write upgrade)", len(faults))
	}
	if faults[0].Kind != Read || faults[1].Kind != Write {
		t.Fatalf("fault kinds = %v,%v want read,write", faults[0].Kind, faults[1].Kind)
	}
	if as.ReadFaults != 1 || as.WriteFaults != 1 {
		t.Fatalf("counters = %d/%d, want 1/1", as.ReadFaults, as.WriteFaults)
	}
}

func TestFaultStormDetected(t *testing.T) {
	mo := NewMemObject(PageSize)
	as := NewAddressSpace()
	if err := as.MapView(0x10000, mo, 0, 1, NoAccess); err != nil {
		t.Fatal(err)
	}
	as.SetFaultHandler(func(ctx any, f Fault) error { return nil }) // never fixes
	_, err := as.ReadU8(nil, 0x10000)
	if !errors.Is(err, ErrFaultStorm) {
		t.Fatalf("err = %v, want ErrFaultStorm", err)
	}
}

func TestAccessSpansPagesWithPerPageChecks(t *testing.T) {
	mo := NewMemObject(2 * PageSize)
	as := NewAddressSpace()
	const base = 0x10000
	if err := as.MapView(base, mo, 0, 1, ReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := as.MapView(base+PageSize, mo, 1, 1, NoAccess); err != nil {
		t.Fatal(err)
	}
	upgrades := 0
	as.SetFaultHandler(func(ctx any, f Fault) error {
		upgrades++
		return as.Protect(f.Addr, 1, ReadWrite)
	})
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	// Write straddling the page boundary: second page must fault once.
	if err := as.WriteAt(nil, base+uint64(PageSize)-50, data); err != nil {
		t.Fatal(err)
	}
	if upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", upgrades)
	}
	got, err := as.ReadAt(nil, base+uint64(PageSize)-50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("straddling write/read mismatch")
	}
}

func TestUnmappedAccess(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.ReadU8(nil, 0x999999); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("err = %v, want ErrUnmapped", err)
	}
}

func TestUnmap(t *testing.T) {
	mo := NewMemObject(PageSize)
	as := NewAddressSpace()
	if err := as.MapView(0x10000, mo, 0, 1, ReadWrite); err != nil {
		t.Fatal(err)
	}
	as.Unmap(0x10000, 1)
	if as.Mapped(0x10000) {
		t.Fatal("still mapped after Unmap")
	}
}

// A Protect that fails — its range runs into an unmapped vpage — must leave
// every page as it was, as a failing MapView does: a chunked minipage is
// re-protected whole or not at all.
func TestProtectFailingChangesNothing(t *testing.T) {
	mo := NewMemObject(3 * PageSize)
	as := NewAddressSpace()
	const base = 0x10000
	prots := []Prot{ReadOnly, ReadWrite, NoAccess}
	for i, p := range prots {
		if err := as.MapView(base+uint64(i)*PageSize, mo, i, 1, p); err != nil {
			t.Fatal(err)
		}
	}
	as.Reserve(base, 8) // the table covers the unmapped pages past the view too
	for _, c := range []struct {
		va uint64
		n  int
	}{{base, 4}, {base + PageSize, 5}, {base + 2*PageSize + 7, 2}, {base - PageSize, 3}, {base + 3*PageSize, 1}} {
		err := as.Protect(c.va, c.n, ReadWrite)
		if !errors.Is(err, ErrUnmapped) {
			t.Fatalf("Protect(%#x, %d): err = %v, want ErrUnmapped", c.va, c.n, err)
		}
		for i, want := range prots {
			if got, _ := as.ProtOf(base + uint64(i)*PageSize); got != want {
				t.Fatalf("after failing Protect(%#x, %d): page %d is %v, was %v", c.va, c.n, i, got, want)
			}
		}
	}
	if err := as.Protect(base, 3, ReadOnly); err != nil {
		t.Fatal(err)
	}
	for i := range prots {
		if got, _ := as.ProtOf(base + uint64(i)*PageSize); got != ReadOnly {
			t.Fatalf("after Protect of the whole view: page %d is %v", i, got)
		}
	}
}

func TestBypassIgnoresProtection(t *testing.T) {
	mo := NewMemObject(PageSize)
	as := NewAddressSpace()
	if err := as.MapView(0x10000, mo, 0, 1, NoAccess); err != nil {
		t.Fatal(err)
	}
	mem, err := as.Bypass(0x10000+16, 8)
	if err != nil {
		t.Fatal(err)
	}
	copy(mem, "ZEROCOPY")
	// Visible through the object's frames directly (aliasing, no copy).
	if string(mo.Frame(0)[16:24]) != "ZEROCOPY" {
		t.Fatal("Bypass write not aliased into frame")
	}
	if _, err := as.Bypass(0x10000+uint64(PageSize)-4, 8); err == nil {
		t.Fatal("page-crossing Bypass accepted")
	}
}

func TestBypassRangeCrossesPages(t *testing.T) {
	mo := NewMemObject(2 * PageSize)
	as := NewAddressSpace()
	if err := as.MapView(0x10000, mo, 0, 2, NoAccess); err != nil {
		t.Fatal(err)
	}
	if err := as.MapView(0x20000, mo, 0, 2, ReadOnly); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := as.BypassRange(0x10000+uint64(PageSize)-10, 20, func(chunk []byte) error {
		n += len(chunk)
		for i := range chunk {
			chunk[i] = 0x5A
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("visited %d bytes, want 20", n)
	}
	if mo.Frame(0)[PageSize-1] != 0x5A || mo.Frame(1)[9] != 0x5A {
		t.Fatal("BypassRange did not write both pages")
	}
	// Both frames were first touched by that privileged write; the other
	// view reads it back.
	got, err := as.ReadAt(nil, 0x20000+uint64(PageSize)-10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, 20)) {
		t.Fatalf("BypassRange write read back through the second view as %x", got)
	}
	if mo.Resident() != 2 {
		t.Fatalf("%d frames resident, want 2", mo.Resident())
	}
}

// TestReadBypassLeavesDemandZeroUntouched: a privileged read across a
// touched and an untouched page copies the one's bytes and the other's
// zeros, and materialises no frame.
func TestReadBypassLeavesDemandZeroUntouched(t *testing.T) {
	mo := NewMemObject(2 * PageSize)
	as := NewAddressSpace()
	if err := as.MapView(0x10000, mo, 0, 2, NoAccess); err != nil {
		t.Fatal(err)
	}
	copy(mo.Frame(0)[PageSize-4:], "DATA")
	buf := bytes.Repeat([]byte{0xFF}, 12)
	if err := as.ReadBypass(0x10000+uint64(PageSize)-4, buf); err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("DATA"), make([]byte, 8)...); !bytes.Equal(buf, want) {
		t.Fatalf("ReadBypass = %q, want %q", buf, want)
	}
	if mo.Resident() != 1 {
		t.Fatalf("%d frames resident after the read, want 1", mo.Resident())
	}
	if err := as.ReadBypass(0x10000+2*uint64(PageSize)-4, buf); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("ReadBypass past the view: %v, want ErrUnmapped", err)
	}
}

func TestTypedAccessors(t *testing.T) {
	mo := NewMemObject(PageSize)
	as := NewAddressSpace()
	if err := as.MapView(0x10000, mo, 0, 1, ReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU32(nil, 0x10000, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU32(nil, 0x10000); v != 0xDEADBEEF {
		t.Fatalf("u32 = %#x", v)
	}
	if err := as.WriteU64(nil, 0x10008, 1<<40+7); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU64(nil, 0x10008); v != 1<<40+7 {
		t.Fatalf("u64 = %d", v)
	}
	if err := as.WriteF64(nil, 0x10010, 3.25); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadF64(nil, 0x10010); v != 3.25 {
		t.Fatalf("f64 = %v", v)
	}
}

// Property: data written through any view is read back identically through
// any other view of the same frames, for arbitrary offsets and contents.
func TestViewAliasProperty(t *testing.T) {
	const pages = 4
	bases := []uint64{0x100000, 0x200000, 0x300000}
	mapped := func() *AddressSpace {
		mo := NewMemObject(pages * PageSize)
		as := NewAddressSpace()
		for _, b := range bases {
			if err := as.MapView(b, mo, 0, pages, ReadWrite); err != nil {
				t.Fatal(err)
			}
		}
		return as
	}
	// warm keeps one space across cases, so most writes land on resident
	// frames; with fresh, every case's write is the first touch of the
	// frames it reaches.
	warm := mapped()
	for name, space := range map[string]func() *AddressSpace{
		"warm":  func() *AddressSpace { return warm },
		"fresh": mapped,
	} {
		f := func(off uint16, data []byte, wi, ri uint8) bool {
			if len(data) == 0 {
				return true
			}
			if len(data) > 2*PageSize {
				data = data[:2*PageSize]
			}
			as := space()
			o := uint64(off) % uint64(pages*PageSize-len(data))
			w := bases[int(wi)%len(bases)]
			r := bases[int(ri)%len(bases)]
			if err := as.WriteAt(nil, w+o, data); err != nil {
				return false
			}
			got, err := as.ReadAt(nil, r+o, len(data))
			if err != nil || !bytes.Equal(got, data) {
				return false
			}
			var priv []byte
			err = as.BypassRange(r+o, len(data), func(chunk []byte) error {
				priv = append(priv, chunk...)
				return nil
			})
			return err == nil && bytes.Equal(priv, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s object: %v", name, err)
		}
	}
}

// A memory object is demand-zero, like the NT section it stands for:
// mapping, protecting and inspecting pages costs no frames; a frame appears
// zeroed at the first access that reaches it.
func TestMemObjectIsDemandZero(t *testing.T) {
	const pages = 8
	mo := NewMemObject(pages * PageSize)
	as := NewAddressSpace()
	const v1, v2 = 0x10000, 0x40000
	if err := as.MapView(v1, mo, 0, pages, NoAccess); err != nil {
		t.Fatal(err)
	}
	if err := as.MapView(v2, mo, 0, pages, ReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(v1, pages, ReadOnly); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < pages; i++ {
		if p, err := as.ProtOf(v1 + i*PageSize); err != nil || p != ReadOnly {
			t.Fatalf("ProtOf page %d = %v, %v", i, p, err)
		}
		if pte, ok := as.Lookup(v2 + i*PageSize); !ok || pte.Obj != mo || pte.Frame != int(i) || pte.Prot != ReadWrite {
			t.Fatalf("Lookup page %d = %+v, %v", i, pte, ok)
		}
		if !as.Mapped(v1 + i*PageSize) {
			t.Fatalf("page %d not mapped", i)
		}
	}
	if mo.Resident() != 0 {
		t.Fatalf("%d frames resident after MapView/Protect/ProtOf/Lookup, want 0", mo.Resident())
	}
	got, err := as.ReadAt(nil, v1+3*PageSize+100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("first read of an untouched frame = %x, want zeros", got)
	}
	if mo.Resident() != 1 {
		t.Fatalf("%d frames resident after reading one page, want 1", mo.Resident())
	}
	if mem, err := as.Bypass(v2+5*PageSize, PageSize); err != nil || !bytes.Equal(mem, make([]byte, PageSize)) {
		t.Fatalf("first Bypass of an untouched frame is not a page of zeros (err %v)", err)
	}
	if mo.Resident() != 2 {
		t.Fatalf("%d frames resident after touching two pages, want 2", mo.Resident())
	}
}

// Objects sharing a pool share its slabs, never a frame.
func TestPoolObjectsNeverShareFrames(t *testing.T) {
	const pages = 300 // past one 1 MB slab between them
	pool := NewFramePool()
	a, b := pool.NewMemObject(pages*PageSize), pool.NewMemObject(pages*PageSize)
	owner := map[*byte]string{}
	for i := 0; i < pages; i++ {
		// Interleave the first touches so neighbouring frames of a slab go
		// to different objects.
		for _, o := range []struct {
			name string
			mo   *MemObject
			fill byte
		}{{"a", a, 0xA0}, {"b", b, 0x0B}} {
			f := o.mo.Frame(i)
			if prev, dup := owner[&f[0]]; dup {
				t.Fatalf("frame %d of %s is also a frame of %s", i, o.name, prev)
			}
			owner[&f[0]] = o.name
			for j := range f {
				f[j] = o.fill
			}
		}
	}
	for i := 0; i < pages; i++ {
		if fa, fb := a.Frame(i), b.Frame(i); fa[0] != 0xA0 || fa[PageSize-1] != 0xA0 || fb[0] != 0x0B || fb[PageSize-1] != 0x0B {
			t.Fatalf("frame %d: a wrote %#x..%#x, b wrote %#x..%#x", i, fa[0], fa[PageSize-1], fb[0], fb[PageSize-1])
		}
	}
	if a.Resident() != pages || b.Resident() != pages {
		t.Fatalf("resident = %d, %d, want %d each", a.Resident(), b.Resident(), pages)
	}
}

// The hottest path in the simulator — Access to a resident page — must
// not allocate, whatever materialising frames costs.
func TestAccessResidentAllocatesNothing(t *testing.T) {
	const pages = 4
	mo := NewMemObject(pages * PageSize)
	as := NewAddressSpace()
	if err := as.MapView(0x10000, mo, 0, pages, ReadWrite); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*PageSize)
	if err := as.Access(nil, 0x10000, make([]byte, pages*PageSize), Write); err != nil {
		t.Fatal(err) // every frame resident
	}
	i := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		va := 0x10000 + (i*1000)%(2*PageSize)
		i++
		if err := as.Access(nil, va, buf, Write); err != nil {
			t.Fatal(err)
		}
		if err := as.Access(nil, va, buf[:8], Read); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Access on resident pages allocates %v times per run, want 0", n)
	}
	// The typed accessors of every width, in the frame and (the last word
	// straddles two pages) through Access.
	if n := testing.AllocsPerRun(1000, func() {
		for _, va := range []uint64{0x10000 + (i*8)%PageSize, 0x10000 + PageSize - 3} {
			for w := 0; w < numWidths; w++ {
				v, err := typedRead(as, nil, va, w)
				if err == nil {
					err = typedWrite(as, nil, va, w, v+1)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		i++
	}); n != 0 {
		t.Fatalf("typed accesses to resident pages allocate %v times per run, want 0", n)
	}
}
