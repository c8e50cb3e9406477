package vm

import (
	"encoding/binary"
	"math"
)

// Typed accessors, the loads and stores of the benchmark applications. All
// shared data is stored little-endian, the byte order of the paper's
// Pentium II testbed.
//
// A word that lies within one page — every aligned word does — is one
// resolve and a load or store in the frame itself: no buffer, no copy. A
// word that straddles a page boundary goes through Access (loadSplit,
// storeSplit), which checks each of its two pages on its own.

// loadSplit reads the size-byte little-endian word at va, which straddles a
// page boundary, zero-extended.
func (as *AddressSpace) loadSplit(ctx any, va uint64, size int) (uint64, error) {
	var b [8]byte
	if err := as.Access(ctx, va, b[:size], Read); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// storeSplit writes the low size bytes of v at va, which straddles a page
// boundary.
func (as *AddressSpace) storeSplit(ctx any, va uint64, size int, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.Access(ctx, va, b[:size], Write)
}

// ReadU32 reads a little-endian uint32 at va.
func (as *AddressSpace) ReadU32(ctx any, va uint64) (uint32, error) {
	off := va % PageSize
	if off > PageSize-4 {
		v, err := as.loadSplit(ctx, va, 4)
		return uint32(v), err
	}
	f, err := as.resolve(ctx, va, Read)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(f[off:][:4]), nil
}

// WriteU32 writes a little-endian uint32 at va.
func (as *AddressSpace) WriteU32(ctx any, va uint64, v uint32) error {
	off := va % PageSize
	if off > PageSize-4 {
		return as.storeSplit(ctx, va, 4, uint64(v))
	}
	f, err := as.resolve(ctx, va, Write)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(f[off:][:4], v)
	return nil
}

// ReadU64 reads a little-endian uint64 at va.
func (as *AddressSpace) ReadU64(ctx any, va uint64) (uint64, error) {
	off := va % PageSize
	if off > PageSize-8 {
		return as.loadSplit(ctx, va, 8)
	}
	f, err := as.resolve(ctx, va, Read)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(f[off:][:8]), nil
}

// WriteU64 writes a little-endian uint64 at va.
func (as *AddressSpace) WriteU64(ctx any, va uint64, v uint64) error {
	off := va % PageSize
	if off > PageSize-8 {
		return as.storeSplit(ctx, va, 8, v)
	}
	f, err := as.resolve(ctx, va, Write)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(f[off:][:8], v)
	return nil
}

// ReadF64 reads a little-endian float64 at va.
func (as *AddressSpace) ReadF64(ctx any, va uint64) (float64, error) {
	v, err := as.ReadU64(ctx, va)
	return math.Float64frombits(v), err
}

// WriteF64 writes a little-endian float64 at va.
func (as *AddressSpace) WriteF64(ctx any, va uint64, v float64) error {
	return as.WriteU64(ctx, va, math.Float64bits(v))
}

// ReadU8 reads the byte at va.
func (as *AddressSpace) ReadU8(ctx any, va uint64) (byte, error) {
	f, err := as.resolve(ctx, va, Read)
	if err != nil {
		return 0, err
	}
	return f[va%PageSize], nil
}

// WriteU8 writes one byte at va.
func (as *AddressSpace) WriteU8(ctx any, va uint64, v byte) error {
	f, err := as.resolve(ctx, va, Write)
	if err != nil {
		return err
	}
	f[va%PageSize] = v
	return nil
}
