package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The reference access path: resolve and Access as one retry loop with the
// hit inside it, and typed accesses as a stack buffer handed to Access.
// TestTypedAccessMatchesByteAccess runs the package's accessors against it;
// nothing outside this file uses it.

func refResolve(as *AddressSpace, ctx any, va uint64, n int, kind AccessKind) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		e := as.slot(va / PageSize)
		if e == nil {
			return nil, fmt.Errorf("%w: %#x", ErrUnmapped, va)
		}
		if e.prot().allows(kind) {
			obj, frame := as.target(va/PageSize, *e)
			off := int(va % PageSize)
			return obj.Frame(frame)[off : off+n], nil
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

func refAccess(as *AddressSpace, ctx any, va uint64, buf []byte, kind AccessKind) error {
	for len(buf) > 0 {
		n := min(PageSize-int(va%PageSize), len(buf))
		mem, err := refResolve(as, ctx, va, n, kind)
		if err != nil {
			return err
		}
		if kind == Write {
			copy(mem, buf[:n])
		} else {
			copy(buf[:n], mem)
		}
		va += uint64(n)
		buf = buf[n:]
	}
	return nil
}

// refRead reads a little-endian word of size bytes, zero-extended.
func refRead(as *AddressSpace, ctx any, va uint64, size int) (uint64, error) {
	var b [8]byte
	if err := refAccess(as, ctx, va, b[:size], Read); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// refWrite writes the low size bytes of v little-endian.
func refWrite(as *AddressSpace, ctx any, va uint64, size int, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return refAccess(as, ctx, va, b[:size], Write)
}

// The widths a typed step draws from: 4 and 8 bytes, and 8 bytes through
// the float accessors.
const (
	widthU32 = iota
	widthU64
	widthF64
	numWidths
)

func widthSize(w int) int { return [numWidths]int{4, 8, 8}[w] }

func typedRead(as *AddressSpace, ctx any, va uint64, w int) (uint64, error) {
	switch w {
	case widthU32:
		v, err := as.ReadU32(ctx, va)
		return uint64(v), err
	case widthU64:
		return as.ReadU64(ctx, va)
	default:
		v, err := as.ReadF64(ctx, va)
		return math.Float64bits(v), err
	}
}

func typedWrite(as *AddressSpace, ctx any, va uint64, w int, v uint64) error {
	switch w {
	case widthU32:
		return as.WriteU32(ctx, va, uint32(v))
	case widthU64:
		return as.WriteU64(ctx, va, v)
	default:
		return as.WriteF64(ctx, va, math.Float64frombits(v))
	}
}

// What a diffWorld's fault handler does with a fault.
const (
	handlerNone    = iota // no handler installed: ErrNoHandler
	handlerUpgrade        // raises the page to what the access needs
	handlerStep           // raises the page one level a call: a write to NoAccess faults twice
	handlerRefuse         // returns errDiffRefused
	handlerIdle           // returns nil and changes nothing: ErrFaultStorm
	numHandlers
)

var errDiffRefused = errors.New("vm test: handler refuses the fault")

// The span the program plays in: 16 vpages from diffBase, of which three
// views of one 4-page object take 12 at the start, leaving [8,10) a gap.
const (
	diffBase     = 0x40000
	diffObjPages = 4
	diffSpan     = 16
)

// diffWorld is one of the two address spaces the differential test drives
// in lock step, with the handler calls it has seen.
type diffWorld struct {
	as    *AddressSpace
	mo    *MemObject
	mode  int
	calls []Fault
}

func newDiffWorld(t *testing.T) *diffWorld {
	w := &diffWorld{as: NewAddressSpace(), mo: NewMemObject(diffObjPages * PageSize)}
	for v, at := range []int{0, 4, 10} { // views 0 and 1 adjacent, then the gap
		for p := 0; p < diffObjPages; p++ {
			va := uint64(diffBase + (at+p)*PageSize)
			must(t, w.as.MapView(va, w.mo, p, 1, Prot((v+p)%3)))
		}
	}
	return w
}

func (w *diffWorld) setMode(t *testing.T, mode int) {
	w.mode = mode
	if mode == handlerNone {
		w.as.SetFaultHandler(nil)
		return
	}
	w.as.SetFaultHandler(func(ctx any, f Fault) error {
		if ctx != any(w) {
			t.Fatalf("handler ctx = %v, want the world passed to the access", ctx)
		}
		w.calls = append(w.calls, f)
		switch w.mode {
		case handlerUpgrade:
			if f.Kind == Write {
				return w.as.Protect(f.Addr, 1, ReadWrite)
			}
			return w.as.Protect(f.Addr, 1, ReadOnly)
		case handlerStep:
			return w.as.Protect(f.Addr, 1, f.Prot+1)
		case handlerRefuse:
			return fmt.Errorf("%w at %#x", errDiffRefused, f.Addr)
		}
		return nil
	})
}

// sameErr reports whether a and b are the same failure: same text, same
// class under errors.Is.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Error() != b.Error() {
		return false
	}
	for _, class := range []error{ErrUnmapped, ErrNoHandler, ErrFaultStorm, errDiffRefused} {
		if errors.Is(a, class) != errors.Is(b, class) {
			return false
		}
	}
	return true
}

// TestTypedAccessMatchesByteAccess is the proof obligation of the split
// access path (hit leaf, out-of-line fault loop, typed accessors decoding in
// the frame): a seeded random program of protection changes, remaps, handler changes, typed accesses of every width — at random
// offsets and at the last bytes of a page, so words straddle page,
// protection, view and mapping boundaries — and plain accesses of 0–600
// bytes runs on two identical address spaces, one through the package's
// accessors and one through the reference above. After every step the two
// must agree on the value, the error, the fault counters, the handler's
// call sequence and the frames touched; at the end, on every frame byte. A
// remap refused because the mapping table is full fails the test: both
// sides would refuse it alike, so the remaps it covers would shrink unseen.
func TestTypedAccessMatchesByteAccess(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := newDiffWorld(t), newDiffWorld(t)
		var classes [5]int // nil, unmapped, no handler, storm, refused
		straddles := 0

		// addr draws an address in the span, half the time within the last
		// eight bytes of its page.
		addr := func() uint64 {
			off := rng.Intn(PageSize)
			if rng.Intn(2) == 0 {
				off = PageSize - 1 - rng.Intn(8)
			}
			return uint64(diffBase + rng.Intn(diffSpan)*PageSize + off)
		}

		const steps = 12000
		for step := 0; step < steps; step++ {
			var desc string
			var errA, errB error
			var valA, valB uint64
			switch r := rng.Intn(100); {
			case r < 12:
				va, n, prot := addr(), 1+rng.Intn(3), Prot(rng.Intn(3))
				desc = fmt.Sprintf("Protect(%#x, %d, %v)", va, n, prot)
				errA, errB = a.as.Protect(va, n, prot), b.as.Protect(va, n, prot)
			case r < 16:
				mode := rng.Intn(numHandlers)
				desc = fmt.Sprintf("handler mode %d", mode)
				a.setMode(t, mode)
				b.setMode(t, mode)
			case r < 25:
				va := uint64(diffBase + rng.Intn(diffSpan)*PageSize)
				first, n, prot := rng.Intn(diffObjPages), 1+rng.Intn(2), Prot(rng.Intn(3))
				desc = fmt.Sprintf("MapView(%#x, frame %d, %d, %v)", va, first, n, prot)
				errA, errB = a.as.MapView(va, a.mo, first, n, prot), b.as.MapView(va, b.mo, first, n, prot)
				if errors.Is(errA, errMappingsFull) {
					t.Fatalf("seed %d step %d: %s: %v; the program's remaps must fit the mapping table", seed, step, desc, errA)
				}
			case r < 80:
				va, w := addr(), rng.Intn(numWidths)
				if int(va%PageSize)+widthSize(w) > PageSize {
					straddles++
				}
				if rng.Intn(2) == 0 {
					desc = fmt.Sprintf("typed read width %d at %#x", w, va)
					valA, errA = typedRead(a.as, a, va, w)
					valB, errB = refRead(b.as, b, va, widthSize(w))
				} else {
					v := rng.Uint64()
					desc = fmt.Sprintf("typed write width %d at %#x", w, va)
					errA = typedWrite(a.as, a, va, w, v)
					errB = refWrite(b.as, b, va, widthSize(w), v)
				}
			default:
				va, n := addr(), rng.Intn(601)
				bufA := make([]byte, n)
				rng.Read(bufA)
				bufB := slices.Clone(bufA)
				kind := AccessKind(rng.Intn(2))
				desc = fmt.Sprintf("Access(%#x, %d bytes, %v)", va, n, kind)
				errA, errB = a.as.Access(a, va, bufA, kind), refAccess(b.as, b, va, bufB, kind)
				if !bytes.Equal(bufA, bufB) {
					t.Fatalf("seed %d step %d: %s: buffers differ", seed, step, desc)
				}
			}
			if !sameErr(errA, errB) {
				t.Fatalf("seed %d step %d: %s: err = %v, reference %v", seed, step, desc, errA, errB)
			}
			if valA != valB {
				t.Fatalf("seed %d step %d: %s: value = %#x, reference %#x", seed, step, desc, valA, valB)
			}
			if a.as.ReadFaults != b.as.ReadFaults || a.as.WriteFaults != b.as.WriteFaults {
				t.Fatalf("seed %d step %d: %s: faults = %d/%d, reference %d/%d", seed, step, desc,
					a.as.ReadFaults, a.as.WriteFaults, b.as.ReadFaults, b.as.WriteFaults)
			}
			if !slices.Equal(a.calls, b.calls) {
				t.Fatalf("seed %d step %d: %s: handler calls = %v, reference %v", seed, step, desc, a.calls, b.calls)
			}
			a.calls, b.calls = a.calls[:0], b.calls[:0]
			if resident(a.mo) != resident(b.mo) {
				t.Fatalf("seed %d step %d: %s: resident = %d, reference %d", seed, step, desc, resident(a.mo), resident(b.mo))
			}
			switch {
			case errA == nil:
				classes[0]++
			case errors.Is(errA, ErrUnmapped):
				classes[1]++
			case errors.Is(errA, ErrNoHandler):
				classes[2]++
			case errors.Is(errA, ErrFaultStorm):
				classes[3]++
			case errors.Is(errA, errDiffRefused):
				classes[4]++
			}
		}
		for i := 0; i < diffObjPages; i++ {
			if !bytes.Equal(a.mo.Frame(i), b.mo.Frame(i)) {
				t.Fatalf("seed %d: frame %d differs from the reference", seed, i)
			}
		}
		// The program must have reached what it claims to compare.
		for c, n := range classes {
			if n == 0 {
				t.Fatalf("seed %d: outcome class %d never occurred in %d steps (%v)", seed, c, steps, classes)
			}
		}
		if straddles < steps/50 || a.as.ReadFaults == 0 || a.as.WriteFaults == 0 {
			t.Fatalf("seed %d: %d straddling words, %d/%d faults: program too tame", seed,
				straddles, a.as.ReadFaults, a.as.WriteFaults)
		}
	}
}
