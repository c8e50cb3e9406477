package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
	"unsafe"
)

// must fails the test if err is not nil.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// readAt reads n bytes at va into a new slice through Access.
func readAt(as *AddressSpace, va uint64, n int) ([]byte, error) {
	buf := make([]byte, n)
	return buf, as.Access(nil, va, buf, Read)
}

// writeAt writes data at va through Access.
func writeAt(as *AddressSpace, va uint64, data []byte) error {
	return as.Access(nil, va, data, Write)
}

// entry is a page-table entry decoded: which frame of which object the
// vpage at va maps, with what protection, and whether it is mapped.
type entry struct {
	obj   *MemObject
	frame int
	prot  Prot
	ok    bool
}

func lookup(as *AddressSpace, va uint64) entry {
	e := as.slot(va / PageSize)
	if e == nil {
		return entry{}
	}
	obj, frame := as.target(va/PageSize, *e)
	return entry{obj, frame, e.prot(), true}
}

// resident counts the object's frames touched so far.
func resident(mo *MemObject) (n int) {
	for _, f := range mo.frames {
		if f != nil {
			n++
		}
	}
	return n
}

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
	must(t, as.MapView(base, mo, 0, 4, ReadWrite))
	want := []byte("hello, millipage")
	must(t, writeAt(as, base+100, want))
	got, err := readAt(as, base+100, len(want))
	must(t, err)
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
	must(t, as.MapView(0x10000, mo, 0, 2, ReadWrite))
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
// mappings each map and protect like any other; the next is an error that
// maps nothing, never a wrap onto another mapping; and a frame index
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
		if e := lookup(as, page(i)); !e.ok || e.obj != mo || e.frame != 0 || e.prot != NoAccess {
			t.Fatalf("mapping %d: entry %+v; want frame 0 of its object, NoAccess", i+1, e)
		}
		must(t, as.Protect(page(i), 1, ReadWrite))
		must(t, as.WriteU32(nil, page(i)+4*uint64(i%2), uint32(i)))
		if e := lookup(as, page(i)); !e.ok || e.obj != mo || e.prot != ReadWrite {
			t.Fatalf("mapping %d: entry after Protect %+v; want ReadWrite", i+1, e)
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
	if lookup(as, last).ok {
		t.Fatal("a rejected MapView mapped a page")
	}

	const oldLimit = 1 << 22                       // frames an entry held when it packed its frame
	big := NewMemObject((oldLimit + 2) * PageSize) // demand-zero: only the frame touched below is allocated
	far := NewAddressSpace()
	if err := far.MapView(va, big, oldLimit, 2, ReadWrite); err != nil {
		t.Fatalf("MapView of frames [%d,%d): %v", oldLimit, oldLimit+2, err)
	}
	must(t, writeAt(far, va+PageSize+8, []byte("top")))
	if e := lookup(far, va+PageSize); !e.ok || e.obj != big || e.frame != oldLimit+1 {
		t.Fatalf("entry %+v; want frame %d", e, oldLimit+1)
	}
	if got := big.Frame(oldLimit + 1)[8:11]; string(got) != "top" || resident(big) != 1 {
		t.Fatalf("frame %d holds %q (%d resident), want the write through its view alone", oldLimit+1, got, resident(big))
	}
}

// The heart of MultiView: two views of the same frames alias each other,
// but their protections are independent.
func TestViewAliasingWithIndependentProtection(t *testing.T) {
	mo := NewMemObject(PageSize)
	as := NewAddressSpace()
	const v1, v2 = 0x10000, 0x20000
	must(t, as.MapView(v1, mo, 0, 1, ReadWrite))
	must(t, as.MapView(v2, mo, 0, 1, ReadOnly))
	// The frame's first touch is the write through view1: the frame it
	// materialises must be the one view2 and Bypass then find.
	if resident(mo) != 0 {
		t.Fatalf("%d frames resident before any access", resident(mo))
	}
	must(t, writeAt(as, v1+8, []byte{0xAB}))
	b, err := readAt(as, v2+8, 1)
	must(t, err)
	if b[0] != 0xAB {
		t.Fatalf("write through view1 not visible through view2: got %#x", b[0])
	}
	if mem, err := as.Bypass(v2+8, 1); err != nil || mem[0] != 0xAB {
		t.Fatalf("write through view1 not visible through Bypass: %v, %v", mem, err)
	}
	if resident(mo) != 1 {
		t.Fatalf("%d frames resident after touching one page through two views", resident(mo))
	}
	// view2 is ReadOnly: a write must fault, and with no handler, error.
	if err := writeAt(as, v2+8, []byte{1}); !errors.Is(err, ErrNoHandler) {
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
	must(t, as.MapView(base, mo, 0, 1, NoAccess))
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
	if _, err := as.ReadU32(nil, base+4); err != nil {
		t.Fatal(err)
	}
	must(t, as.WriteU32(nil, base+4, 9))
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
	must(t, as.MapView(0x10000, mo, 0, 1, NoAccess))
	as.SetFaultHandler(func(ctx any, f Fault) error { return nil }) // never fixes
	_, err := as.ReadU32(nil, 0x10000)
	if !errors.Is(err, ErrFaultStorm) {
		t.Fatalf("err = %v, want ErrFaultStorm", err)
	}
}

func TestAccessSpansPagesWithPerPageChecks(t *testing.T) {
	mo := NewMemObject(2 * PageSize)
	as := NewAddressSpace()
	const base = 0x10000
	must(t, as.MapView(base, mo, 0, 1, ReadWrite))
	must(t, as.MapView(base+PageSize, mo, 1, 1, NoAccess))
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
	must(t, writeAt(as, base+uint64(PageSize)-50, data))
	if upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", upgrades)
	}
	got, err := readAt(as, base+uint64(PageSize)-50, 100)
	must(t, err)
	if !bytes.Equal(got, data) {
		t.Fatal("straddling write/read mismatch")
	}
}

func TestUnmappedAccess(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.ReadU32(nil, 0x999999); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("err = %v, want ErrUnmapped", err)
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
		must(t, as.MapView(base+uint64(i)*PageSize, mo, i, 1, p))
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
	must(t, as.Protect(base, 3, ReadOnly))
	for i := range prots {
		if got, _ := as.ProtOf(base + uint64(i)*PageSize); got != ReadOnly {
			t.Fatalf("after Protect of the whole view: page %d is %v", i, got)
		}
	}
}

func TestBypassIgnoresProtection(t *testing.T) {
	mo := NewMemObject(PageSize)
	as := NewAddressSpace()
	must(t, as.MapView(0x10000, mo, 0, 1, NoAccess))
	mem, err := as.Bypass(0x10000+16, 8)
	must(t, err)
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
	must(t, as.MapView(0x10000, mo, 0, 2, NoAccess))
	must(t, as.MapView(0x20000, mo, 0, 2, ReadOnly))
	n := 0
	err := as.BypassRange(0x10000+uint64(PageSize)-10, 20, func(chunk []byte) error {
		n += len(chunk)
		for i := range chunk {
			chunk[i] = 0x5A
		}
		return nil
	})
	must(t, err)
	if n != 20 {
		t.Fatalf("visited %d bytes, want 20", n)
	}
	if mo.Frame(0)[PageSize-1] != 0x5A || mo.Frame(1)[9] != 0x5A {
		t.Fatal("BypassRange did not write both pages")
	}
	// Both frames were first touched by that privileged write; the other
	// view reads it back.
	got, err := readAt(as, 0x20000+uint64(PageSize)-10, 20)
	must(t, err)
	if !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, 20)) {
		t.Fatalf("BypassRange write read back through the second view as %x", got)
	}
	if resident(mo) != 2 {
		t.Fatalf("%d frames resident, want 2", resident(mo))
	}
}

// TestReadBypassLeavesDemandZeroUntouched: a privileged read across a
// touched and an untouched page copies the one's bytes and the other's
// zeros, and materialises no frame.
func TestReadBypassLeavesDemandZeroUntouched(t *testing.T) {
	mo := NewMemObject(2 * PageSize)
	as := NewAddressSpace()
	must(t, as.MapView(0x10000, mo, 0, 2, NoAccess))
	copy(mo.Frame(0)[PageSize-4:], "DATA")
	buf := bytes.Repeat([]byte{0xFF}, 12)
	must(t, as.ReadBypass(0x10000+uint64(PageSize)-4, buf))
	if want := append([]byte("DATA"), make([]byte, 8)...); !bytes.Equal(buf, want) {
		t.Fatalf("ReadBypass = %q, want %q", buf, want)
	}
	if resident(mo) != 1 {
		t.Fatalf("%d frames resident after the read, want 1", resident(mo))
	}
	if err := as.ReadBypass(0x10000+2*uint64(PageSize)-4, buf); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("ReadBypass past the view: %v, want ErrUnmapped", err)
	}
}

func TestTypedAccessors(t *testing.T) {
	mo := NewMemObject(PageSize)
	as := NewAddressSpace()
	must(t, as.MapView(0x10000, mo, 0, 1, ReadWrite))
	must(t, as.WriteU32(nil, 0x10000, 0xDEADBEEF))
	if v, _ := as.ReadU32(nil, 0x10000); v != 0xDEADBEEF {
		t.Fatalf("u32 = %#x", v)
	}
	must(t, as.WriteU64(nil, 0x10008, 1<<40+7))
	if v, _ := as.ReadU64(nil, 0x10008); v != 1<<40+7 {
		t.Fatalf("u64 = %d", v)
	}
	must(t, as.WriteF64(nil, 0x10010, 3.25))
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
			must(t, as.MapView(b, mo, 0, pages, ReadWrite))
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
			if err := writeAt(as, w+o, data); err != nil {
				return false
			}
			got, err := readAt(as, r+o, len(data))
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
	must(t, as.MapView(v1, mo, 0, pages, NoAccess))
	must(t, as.MapView(v2, mo, 0, pages, ReadWrite))
	must(t, as.Protect(v1, pages, ReadOnly))
	for i := uint64(0); i < pages; i++ {
		if p, err := as.ProtOf(v1 + i*PageSize); err != nil || p != ReadOnly {
			t.Fatalf("ProtOf page %d = %v, %v", i, p, err)
		}
		if e := lookup(as, v2+i*PageSize); !e.ok || e.obj != mo || e.frame != int(i) || e.prot != ReadWrite {
			t.Fatalf("entry of page %d = %+v", i, e)
		}
		if !lookup(as, v1+i*PageSize).ok {
			t.Fatalf("page %d not mapped", i)
		}
	}
	if resident(mo) != 0 {
		t.Fatalf("%d frames resident after MapView/Protect/ProtOf, want 0", resident(mo))
	}
	got, err := readAt(as, v1+3*PageSize+100, 64)
	must(t, err)
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("first read of an untouched frame = %x, want zeros", got)
	}
	if resident(mo) != 1 {
		t.Fatalf("%d frames resident after reading one page, want 1", resident(mo))
	}
	if mem, err := as.Bypass(v2+5*PageSize, PageSize); err != nil || !bytes.Equal(mem, make([]byte, PageSize)) {
		t.Fatalf("first Bypass of an untouched frame is not a page of zeros (err %v)", err)
	}
	if resident(mo) != 2 {
		t.Fatalf("%d frames resident after touching two pages, want 2", resident(mo))
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
	if resident(a) != pages || resident(b) != pages {
		t.Fatalf("resident = %d, %d, want %d each", resident(a), resident(b), pages)
	}
}

// The hottest path in the simulator — Access to a resident page — must
// not allocate, whatever materialising frames costs.
func TestAccessResidentAllocatesNothing(t *testing.T) {
	const pages = 4
	mo := NewMemObject(pages * PageSize)
	as := NewAddressSpace()
	must(t, as.MapView(0x10000, mo, 0, pages, ReadWrite))
	buf := make([]byte, 2*PageSize)
	if err := as.Access(nil, 0x10000, make([]byte, pages*PageSize), Write); err != nil {
		t.Fatal(err) // every frame resident
	}
	i := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		va := 0x10000 + (i*1000)%(2*PageSize)
		i++
		must(t, as.Access(nil, va, buf, Write))
		must(t, as.Access(nil, va, buf[:8], Read))
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
				must(t, err)
			}
		}
		i++
	}); n != 0 {
		t.Fatalf("typed accesses to resident pages allocate %v times per run, want 0", n)
	}
}
