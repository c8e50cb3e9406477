package vm

import (
	"encoding/binary"
	"math"
)

// Typed accessors, the loads and stores of the benchmark applications. All
// shared data is stored little-endian, the byte order of the paper's
// Pentium II testbed. A word within one page — every aligned word — is one
// resolve and a load or store in the frame itself: no buffer, no copy. A
// word that straddles a page boundary goes through Access, which checks
// each of its two pages on its own.

// load reads the size-byte (4 or 8) word at va, zero-extended.
func (as *AddressSpace) load(ctx any, va uint64, size int) (uint64, error) {
	off := int(va % PageSize)
	if off+size > PageSize {
		var b [8]byte
		if err := as.Access(ctx, va, b[:size], Read); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	f, err := as.resolve(ctx, va, Read)
	if err != nil {
		return 0, err
	}
	if size == 8 {
		return binary.LittleEndian.Uint64(f[off:]), nil
	}
	return uint64(binary.LittleEndian.Uint32(f[off:])), nil
}

// store writes the low size bytes (4 or 8) of v at va.
func (as *AddressSpace) store(ctx any, va uint64, size int, v uint64) error {
	off := int(va % PageSize)
	if off+size > PageSize {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return as.Access(ctx, va, b[:size], Write)
	}
	f, err := as.resolve(ctx, va, Write)
	if err != nil {
		return err
	}
	if size == 8 {
		binary.LittleEndian.PutUint64(f[off:], v)
	} else {
		binary.LittleEndian.PutUint32(f[off:], uint32(v))
	}
	return nil
}

// ReadU32 reads a little-endian uint32 at va.
func (as *AddressSpace) ReadU32(ctx any, va uint64) (uint32, error) {
	v, err := as.load(ctx, va, 4)
	return uint32(v), err
}

// WriteU32 writes a little-endian uint32 at va.
func (as *AddressSpace) WriteU32(ctx any, va uint64, v uint32) error {
	return as.store(ctx, va, 4, uint64(v))
}

// ReadU64 reads a little-endian uint64 at va.
func (as *AddressSpace) ReadU64(ctx any, va uint64) (uint64, error) {
	return as.load(ctx, va, 8)
}

// WriteU64 writes a little-endian uint64 at va.
func (as *AddressSpace) WriteU64(ctx any, va uint64, v uint64) error {
	return as.store(ctx, va, 8, v)
}

// ReadF64 reads a little-endian float64 at va.
func (as *AddressSpace) ReadF64(ctx any, va uint64) (float64, error) {
	v, err := as.load(ctx, va, 8)
	return math.Float64frombits(v), err
}

// WriteF64 writes a little-endian float64 at va.
func (as *AddressSpace) WriteF64(ctx any, va uint64, v float64) error {
	return as.store(ctx, va, 8, math.Float64bits(v))
}
