package apps

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sorUpdateRowNaive is the relaxation step as first written: every term of
// every column decoded where it is used, through plain slices. sorUpdateRow
// must produce its bytes exactly.
func sorUpdateRowNaive(up, cur, down, out []byte) {
	g := func(b []byte, c int) float32 {
		return math.Float32frombits(binary.LittleEndian.Uint32(b[4*c:]))
	}
	for c := 0; c < sorCols; c++ {
		left, right := g(cur, max(c-1, 0)), g(cur, min(c+1, sorCols-1))
		v := 0.25 * (g(up, c) + g(down, c) + left + right)
		binary.LittleEndian.PutUint32(out[4*c:], math.Float32bits(v))
	}
}

// f32Specials are the bit patterns arithmetic treats specially: signed
// zeros, infinities, quiet and signalling NaNs with payloads, the smallest
// and largest denormals, the extremes of the normal range.
var f32Specials = []uint32{
	0x00000000, 0x80000000, 0x7f800000, 0xff800000,
	0x7fc00000, 0xffc00001, 0x7fc12345, 0x7f800001, 0xffbfffff,
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff,
	0x00800000, 0x7f7fffff, 0xff7fffff, 0x3f800000, 0xbf800000,
}

// fillF32 fills b with little-endian float32 patterns: random bits (which
// are NaN 1 time in 256), ordinary values around 1, or the specials.
func fillF32(rng *rand.Rand, b []byte, kind int) {
	for i := 0; i+4 <= len(b); i += 4 {
		var bits uint32
		switch kind {
		case 0:
			bits = rng.Uint32()
		case 1:
			bits = math.Float32bits(rng.Float32()*2 - 0.5)
		default:
			bits = f32Specials[rng.Intn(len(f32Specials))]
		}
		binary.LittleEndian.PutUint32(b[i:], bits)
	}
}

// TestSORUpdateRowBitIdentical holds sorUpdateRow to the naive form bit for
// bit — uint32 patterns, not float comparison, so NaN payloads and the sign
// of zero count — over random rows, ordinary rows and rows of special
// values, each neighbour drawing its kind on its own. One case has no
// defined bits: when two NaNs meet in an addition (two NaN terms, or one and
// the NaN that +Inf + -Inf made), which payload survives is the
// instruction's operand order, the compiler's choice; there both forms must
// give a NaN.
func TestSORUpdateRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var up, cur, down, got, want [sorRowBytes]byte
	for trial := 0; trial < 3000; trial++ {
		fillF32(rng, up[:], rng.Intn(3))
		fillF32(rng, cur[:], rng.Intn(3))
		fillF32(rng, down[:], rng.Intn(3))
		sorUpdateRow(up[:], cur[:], down[:], got[:])
		sorUpdateRowNaive(up[:], cur[:], down[:], want[:])
		for c := 0; c < sorCols; c++ {
			g, w := binary.LittleEndian.Uint32(got[4*c:]), binary.LittleEndian.Uint32(want[4*c:])
			if g == w {
				continue
			}
			// Walk the sum as both forms add it: do two NaNs meet?
			terms := [4]float32{sorElemAt(&up, c), sorElemAt(&down, c), sorElemAt(&cur, max(c-1, 0)), sorElemAt(&cur, min(c+1, sorCols-1))}
			sum, twoNaNsMeet := terms[0], false
			for _, term := range terms[1:] {
				twoNaNsMeet = twoNaNsMeet || sum != sum && term != term
				sum += term
			}
			if gf, wf := math.Float32frombits(g), math.Float32frombits(w); !twoNaNsMeet || gf == gf || wf == wf {
				t.Fatalf("trial %d column %d: %#08x, naive form %#08x (terms %x)", trial, c, g, w, terms)
			}
		}
	}
}

// TestLUBlockCodecRoundTrip: a block's bytes decode to the float32 the
// plain little-endian reading gives, and encode back to the same bytes, for
// every bit pattern class (a float32 is moved, never converted, so NaN
// payloads survive).
func TestLUBlockCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var in, out [luBlockSz]byte
	var blk [luElems]float32
	for trial := 0; trial < 60; trial++ {
		fillF32(rng, in[:], trial%3)
		decodeBlockF32(&blk, &in)
		for i, v := range blk {
			if g, w := math.Float32bits(v), binary.LittleEndian.Uint32(in[4*i:]); g != w {
				t.Fatalf("trial %d element %d decodes to %#08x, stored %#08x", trial, i, g, w)
			}
		}
		encodeBlockF32(&out, &blk)
		if in != out {
			t.Fatalf("trial %d: block does not survive decode and encode", trial)
		}
	}
}

func BenchmarkSORUpdateRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	up, cur, down, out := make([]byte, sorRowBytes), make([]byte, sorRowBytes), make([]byte, sorRowBytes), make([]byte, sorRowBytes)
	fillF32(rng, up, 1)
	fillF32(rng, cur, 1)
	fillF32(rng, down, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sorUpdateRow(up, cur, down, out)
	}
}
