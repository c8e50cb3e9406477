package vm

import "testing"

// BenchmarkAccessSamePage measures the fast path: protection check plus
// copy within one mapped page.
func BenchmarkAccessSamePage(b *testing.B) {
	mo := NewMemObject(PageSize)
	as := NewAddressSpace()
	if err := as.MapView(0x10000, mo, 0, 1, ReadWrite); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.Access(nil, 0x10000+uint64(i%64)*64, buf, Read); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessCrossPage measures a 256-byte access spanning pages.
func BenchmarkAccessCrossPage(b *testing.B) {
	mo := NewMemObject(2 * PageSize)
	as := NewAddressSpace()
	if err := as.MapView(0x10000, mo, 0, 2, ReadWrite); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 256)
	va := uint64(0x10000 + PageSize - 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.Access(nil, va, buf, Write); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtect measures protection flips (the DSM's hottest
// metadata operation).
func BenchmarkProtect(b *testing.B) {
	mo := NewMemObject(PageSize)
	as := NewAddressSpace()
	if err := as.MapView(0x10000, mo, 0, 1, ReadWrite); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.Protect(0x10000, 1, Prot(i%3))
	}
}

// benchPage maps one page at 0x10000 with protection prot.
func benchPage(b *testing.B, prot Prot) *AddressSpace {
	as := NewAddressSpace()
	if err := as.MapView(0x10000, NewMemObject(PageSize), 0, 1, prot); err != nil {
		b.Fatal(err)
	}
	return as
}

var benchSink uint64

// BenchmarkTypedReadU64 measures a typed load on a resident, readable
// page — every Worker.ReadF64 of the applications.
func BenchmarkTypedReadU64(b *testing.B) {
	as := benchPage(b, ReadWrite)
	var sum uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := as.ReadU64(nil, 0x10000+uint64(i%512)*8)
		if err != nil {
			b.Fatal(err)
		}
		sum += v
	}
	benchSink = sum
}

// BenchmarkTypedWriteU64 measures a typed store on a resident, writable
// page.
func BenchmarkTypedWriteU64(b *testing.B) {
	as := benchPage(b, ReadWrite)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.WriteU64(nil, 0x10000+uint64(i%512)*8, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultUpcall measures an access that faults once: the missed
// hit, the out-of-line fault loop, the handler's Protect and the retry.
func BenchmarkFaultUpcall(b *testing.B) {
	as := benchPage(b, NoAccess)
	as.SetFaultHandler(func(_ any, f Fault) error { return as.Protect(f.Addr, 1, ReadWrite) })
	var buf [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.Access(nil, 0x10000, buf[:], Write); err != nil {
			b.Fatal(err)
		}
		as.Protect(0x10000, 1, NoAccess)
	}
}
