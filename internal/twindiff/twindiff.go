// Package twindiff implements page twinning and run-length diffs, the
// Munin/TreadMarks-style machinery that multiple-writer DSM protocols use
// to merge concurrent writes to one page.
//
// Millipage's thin-layer design exists to avoid exactly this: the paper
// measures a 250 µs run-length diff for a 4 KB page on its testbed
// (Section 4.2, "obviously, this time is not negligible, and would have
// dominated the overhead if it were required in the dsm protocol"). The
// package provides a real implementation — used by the lazy-release-
// consistency extension and by the Table 1 benchmarks — plus the paper's
// calibrated cost model for charging simulated time.
package twindiff

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"millipage/internal/sim"
)

// Twin returns a private copy of page, taken before writes are allowed —
// the "twin" against which a later diff is computed.
func Twin(page []byte) []byte {
	t := make([]byte, len(page))
	copy(t, page)
	return t
}

// Run is one modified span of a page.
type Run struct {
	Off  int
	Data []byte
}

// Diff computes the run-length encoding of the differences between twin
// and cur, which must be the same length. Adjacent or near-adjacent
// changes (gap < minGap) coalesce into one run, as real implementations
// do to keep the encoding compact.
func Diff(twin, cur []byte) ([]Run, error) {
	if len(twin) != len(cur) {
		return nil, fmt.Errorf("twindiff: twin %d bytes vs page %d bytes", len(twin), len(cur))
	}
	var runs []Run
	for start, end := nextRun(twin, cur, 0); start < end; start, end = nextRun(twin, cur, end) {
		runs = append(runs, Run{Off: start, Data: append([]byte(nil), cur[start:end]...)})
	}
	return runs, nil
}

// nextRun returns the first modified span [start, end) of cur at or
// after offset i, or an empty span at len(cur) when the rest is equal.
// Most of a page is unchanged, so the equal stretch before a run is
// skipped a word at a time (the XOR's lowest set bit names the first
// differing byte) with a byte loop for the last len%8 bytes; the run
// itself is walked by bytes, a change less than minGap past the last
// one extending it.
func nextRun(twin, cur []byte, i int) (start, end int) {
	const minGap = 8
	for i+8 <= len(cur) {
		if x := binary.LittleEndian.Uint64(twin[i:]) ^ binary.LittleEndian.Uint64(cur[i:]); x != 0 {
			i += bits.TrailingZeros64(x) / 8
			break
		}
		i += 8
	}
	for i < len(cur) && twin[i] == cur[i] {
		i++
	}
	if i == len(cur) {
		return i, i
	}
	last := i
	for j := i + 1; j < len(cur) && j-last < minGap; j++ {
		if twin[j] != cur[j] {
			last = j
		}
	}
	return i, last + 1
}

// Apply patches page with runs (as produced by Diff against page's twin).
func Apply(page []byte, runs []Run) error {
	for _, r := range runs {
		if r.Off < 0 || r.Off+len(r.Data) > len(page) {
			return fmt.Errorf("twindiff: run [%d,%d) outside page of %d bytes", r.Off, r.Off+len(r.Data), len(page))
		}
		copy(page[r.Off:], r.Data)
	}
	return nil
}

// AppendDiff computes the run-length diff of cur against twin and
// appends its wire encoding directly to dst, returning the extended
// slice. The bytes produced are identical to Encode(Diff(twin, cur)),
// without materializing the intermediate []Run or copying run data out
// of cur — the allocation-free form for protocol hot loops that hold a
// reusable encode buffer.
func AppendDiff(dst, twin, cur []byte) ([]byte, error) {
	if len(twin) != len(cur) {
		return nil, fmt.Errorf("twindiff: twin %d bytes vs page %d bytes", len(twin), len(cur))
	}
	var hdr [4]byte
	for start, end := nextRun(twin, cur, 0); start < end; start, end = nextRun(twin, cur, end) {
		n := end - start
		if start > maxField || n > maxField {
			return nil, fmt.Errorf("twindiff: run at offset %d length %d outside uint16 range", start, n)
		}
		binary.LittleEndian.PutUint16(hdr[0:2], uint16(start))
		binary.LittleEndian.PutUint16(hdr[2:4], uint16(n))
		dst = append(dst, hdr[:]...)
		dst = append(dst, cur[start:end]...)
	}
	return dst, nil
}

// ApplyEncoded patches page directly from an encoded diff, equivalent to
// Apply(page, Decode(enc)) but without materializing runs. Validation is
// all-or-nothing: the encoding is checked in full (canonical order, no
// overlap, in-bounds) before the first byte of page is touched, so a
// corrupt frame never half-applies.
func ApplyEncoded(page, enc []byte) error {
	rest := enc
	end := 0
	for len(rest) > 0 {
		if len(rest) < 4 {
			return ErrCorrupt
		}
		off := int(binary.LittleEndian.Uint16(rest[0:2]))
		n := int(binary.LittleEndian.Uint16(rest[2:4]))
		rest = rest[4:]
		if n == 0 || n > len(rest) {
			return ErrCorrupt
		}
		if off < end {
			return ErrCorrupt
		}
		end = off + n
		if end > len(page) {
			return fmt.Errorf("twindiff: run [%d,%d) outside page of %d bytes", off, end, len(page))
		}
		rest = rest[n:]
	}
	for len(enc) > 0 {
		off := int(binary.LittleEndian.Uint16(enc[0:2]))
		n := int(binary.LittleEndian.Uint16(enc[2:4]))
		copy(page[off:], enc[4:4+n])
		enc = enc[4+n:]
	}
	return nil
}

// ErrCorrupt reports a malformed encoded diff.
var ErrCorrupt = errors.New("twindiff: corrupt encoding")

// maxField is the largest offset or run length the (uint16, uint16)
// record header can carry. Pages in this system are at most 4 KiB, so a
// well-formed diff never comes near it; hitting it means the caller
// diffed something that is not a page.
const maxField = 1<<16 - 1

// Encode serializes runs into the wire format: a sequence of
// (offset uint16, length uint16, data) records. Runs must be canonical —
// sorted by offset, non-overlapping, non-empty, as Diff produces — and
// must fit the 16-bit header fields; Encode returns an error rather than
// silently truncating an offset or length past 64 KiB.
func Encode(runs []Run) ([]byte, error) {
	out := make([]byte, 0, Size(runs))
	var hdr [4]byte
	end := 0
	for i, r := range runs {
		if r.Off < 0 || r.Off > maxField {
			return nil, fmt.Errorf("twindiff: run %d offset %d outside uint16 range", i, r.Off)
		}
		if len(r.Data) == 0 || len(r.Data) > maxField {
			return nil, fmt.Errorf("twindiff: run %d length %d outside [1,%d]", i, len(r.Data), maxField)
		}
		if r.Off < end {
			return nil, fmt.Errorf("twindiff: run %d at offset %d overlaps previous run ending at %d", i, r.Off, end)
		}
		end = r.Off + len(r.Data)
		binary.LittleEndian.PutUint16(hdr[0:2], uint16(r.Off))
		binary.LittleEndian.PutUint16(hdr[2:4], uint16(len(r.Data)))
		out = append(out, hdr[:]...)
		out = append(out, r.Data...)
	}
	return out, nil
}

// Decode parses the wire format back into runs. Only the canonical
// encoding is accepted: non-empty runs, sorted by offset, without
// overlap — exactly what Diff produces and Encode emits. Anything else
// (including a frame whose arbitrary-order patches would make Apply
// last-writer-wins dependent) fails with ErrCorrupt rather than
// half-applying.
func Decode(enc []byte) ([]Run, error) {
	var runs []Run
	end := 0
	for len(enc) > 0 {
		if len(enc) < 4 {
			return nil, ErrCorrupt
		}
		off := int(binary.LittleEndian.Uint16(enc[0:2]))
		n := int(binary.LittleEndian.Uint16(enc[2:4]))
		enc = enc[4:]
		if n == 0 || n > len(enc) {
			return nil, ErrCorrupt
		}
		if off < end {
			return nil, ErrCorrupt
		}
		end = off + n
		runs = append(runs, Run{Off: off, Data: append([]byte(nil), enc[:n]...)})
		enc = enc[n:]
	}
	return runs, nil
}

// Size returns the encoded size of runs in bytes.
func Size(runs []Run) int {
	n := 0
	for _, r := range runs {
		n += 4 + len(r.Data)
	}
	return n
}

// CreateCost is the paper's measured diff-creation time on the testbed:
// 250 µs for a 4 KB page, decreasing linearly with page size.
func CreateCost(pageBytes int) sim.Duration {
	return sim.Duration(int64(250*int64(sim.Microsecond)) * int64(pageBytes) / 4096)
}

// ApplyCost models patching a page with an encoded diff: proportional to
// the diff size, cheaper per byte than creation (no comparison pass).
func ApplyCost(diffBytes int) sim.Duration {
	return sim.Duration(int64(40*int64(sim.Microsecond)) * int64(diffBytes) / 4096)
}

// TwinCost models copying a page to create its twin.
func TwinCost(pageBytes int) sim.Duration {
	return sim.Duration(int64(30*int64(sim.Microsecond)) * int64(pageBytes) / 4096)
}
