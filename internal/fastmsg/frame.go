package fastmsg

// Wire-format frames. The simulator hands *Message values between
// endpoints directly, but the reliability layer's contract is defined
// in terms of what a real FM implementation would put on the wire:
// a framed header carrying the link addressing, the per-link sequence
// number or an ack's two floors and incarnation, and the bulk bytes,
// integrity-checked.
// This file is that specification — EncodeFrame/DecodeFrame are the
// single source of truth for the format — and the fault-mode transmit
// path runs every outgoing frame through an encode/decode self-check,
// so the codec is exercised by every chaos and exploration run, and
// DecodeFrame additionally faces adversarial inputs under fuzzing:
// it must reject arbitrary garbage with an error, never a panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame kinds.
const (
	FrameData uint8 = 1 // a sequenced payload frame
	FrameAck  uint8 = 2 // a cumulative acknowledgement: admitted and processed floors
)

const (
	frameVersion  = 0x02
	frameMagic    = 0xFA
	maxFrameHosts = 1 << 16 // sanity bound on host indices
	maxFrameSize  = 1 << 30 // sanity bound on the modeled wire size
)

// Frame is the decoded form of one wire frame.
type Frame struct {
	Kind uint8
	From int
	To   int
	Seq  uint64 // per-link sequence (data) or admitted floor (ack)
	Size int    // modeled wire size in bytes (data only)
	Data []byte // bulk bytes (data only; nil for ack)
	Done uint64 // processed floor (ack only)
	Inc  uint64 // the receiver's incarnation (ack only)
}

// EncodeFrame renders f in the wire format: magic, version, kind,
// varint header fields, length-prefixed bulk bytes, and a trailing
// FNV-1a/32 checksum over everything before it.
func EncodeFrame(f *Frame) []byte {
	n := 3 + 5*binary.MaxVarintLen64 + len(f.Data) + 4
	return appendFrame(make([]byte, 0, n), f)
}

// appendFrame appends f's wire encoding to dst and returns the extended
// slice — the allocation-free form of EncodeFrame, for callers that
// recycle a scratch buffer (the per-frame codec self-check on the
// fault-mode hot path).
func appendFrame(dst []byte, f *Frame) []byte {
	start := len(dst)
	dst = append(dst, frameMagic, frameVersion, f.Kind)
	dst = binary.AppendUvarint(dst, uint64(f.From))
	dst = binary.AppendUvarint(dst, uint64(f.To))
	dst = binary.AppendUvarint(dst, f.Seq)
	if f.Kind == FrameData {
		dst = binary.AppendUvarint(dst, uint64(f.Size))
		dst = binary.AppendUvarint(dst, uint64(len(f.Data)))
		dst = append(dst, f.Data...)
	} else {
		dst = binary.AppendUvarint(dst, f.Done)
		dst = binary.AppendUvarint(dst, f.Inc)
	}
	return binary.BigEndian.AppendUint32(dst, fnv1a32(dst[start:]))
}

// fnv1a32 is FNV-1a/32 over b, identical to hash/fnv's New32a but
// without allocating a hasher object.
func fnv1a32(b []byte) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for _, c := range b {
		h ^= uint32(c)
		h *= prime32
	}
	return h
}

// Frame decoding errors.
var (
	ErrFrameShort    = errors.New("fastmsg: frame truncated")
	ErrFrameMagic    = errors.New("fastmsg: bad frame magic or version")
	ErrFrameKind     = errors.New("fastmsg: unknown frame kind")
	ErrFrameField    = errors.New("fastmsg: malformed frame field")
	ErrFrameChecksum = errors.New("fastmsg: frame checksum mismatch")
)

// DecodeFrame parses one wire frame. It returns an error — never
// panics, never over-reads — on any malformed input, and requires the
// input to be exactly one frame (no trailing bytes).
func DecodeFrame(b []byte) (*Frame, error) {
	f := &Frame{}
	if err := decodeFrameInto(f, b); err != nil {
		return nil, err
	}
	return f, nil
}

// decodeFrameInto is DecodeFrame into a caller-supplied Frame, for
// callers that recycle a scratch record.
func decodeFrameInto(f *Frame, b []byte) error {
	*f = Frame{}
	if len(b) < 3+1+4 {
		return ErrFrameShort
	}
	body, sum := b[:len(b)-4], b[len(b)-4:]
	if binary.BigEndian.Uint32(sum) != fnv1a32(body) {
		return ErrFrameChecksum
	}
	if body[0] != frameMagic || body[1] != frameVersion {
		return ErrFrameMagic
	}
	f.Kind = body[2]
	if f.Kind != FrameData && f.Kind != FrameAck {
		return ErrFrameKind
	}
	rest := body[3:]
	field := func(name string, max uint64) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("%w: %s", ErrFrameField, name)
		}
		if v > max {
			return 0, fmt.Errorf("%w: %s %d out of range", ErrFrameField, name, v)
		}
		rest = rest[n:]
		return v, nil
	}
	from, err := field("from", maxFrameHosts-1)
	if err != nil {
		return err
	}
	to, err := field("to", maxFrameHosts-1)
	if err != nil {
		return err
	}
	f.From, f.To = int(from), int(to)
	if f.Seq, err = field("seq", 1<<62); err != nil {
		return err
	}
	if f.Kind == FrameData {
		size, err := field("size", maxFrameSize)
		if err != nil {
			return err
		}
		f.Size = int(size)
		dlen, err := field("datalen", uint64(len(rest)))
		if err != nil {
			return err
		}
		if dlen > 0 {
			f.Data = rest[:dlen:dlen]
			rest = rest[dlen:]
		}
	} else {
		if f.Done, err = field("done", f.Seq); err != nil {
			return err
		}
		if f.Inc, err = field("inc", 1<<62); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrFrameField, len(rest))
	}
	return nil
}

// selfCheckFrame round-trips f through the wire format and panics on
// any disagreement — a modeling invariant, asserted on the fault path
// where frames conceptually cross a lossy wire. The encode buffer and
// decode record are per-network scratch so the check is allocation-free
// on the armed hot path.
func (r *reliability) selfCheckFrame(f *Frame) {
	r.frameBuf = appendFrame(r.frameBuf[:0], f)
	g := &r.frameTmp
	if err := decodeFrameInto(g, r.frameBuf); err != nil {
		panic("fastmsg: frame codec self-check: " + err.Error())
	}
	if g.Kind != f.Kind || g.From != f.From || g.To != f.To || g.Seq != f.Seq ||
		g.Size != f.Size || len(g.Data) != len(f.Data) || g.Done != f.Done || g.Inc != f.Inc {
		panic("fastmsg: frame codec self-check: round trip changed the frame")
	}
}

// selfCheckData asserts the wire format round-trips m's data frame.
func (r *reliability) selfCheckData(m *Message) {
	f := Frame{Kind: FrameData, From: m.From, To: m.To, Seq: m.Seq, Size: m.Size, Data: m.Data}
	r.selfCheckFrame(&f)
}

// selfCheckAck asserts the wire format round-trips an ack.
func (r *reliability) selfCheckAck(from, to int, a ack) {
	f := Frame{Kind: FrameAck, From: from, To: to, Seq: a.admitted, Done: a.done, Inc: a.inc}
	r.selfCheckFrame(&f)
}
