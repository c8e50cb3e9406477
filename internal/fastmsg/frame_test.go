package fastmsg

import (
	"bytes"
	"hash/fnv"
	"testing"
)

func frameSeeds() []*Frame {
	return []*Frame{
		{Kind: FrameData, From: 0, To: 1, Seq: 1, Size: 40, Data: []byte("hello")},
		{Kind: FrameData, From: 3, To: 0, Seq: 1 << 40, Size: 4096, Data: bytes.Repeat([]byte{0xAB}, 64)},
		{Kind: FrameData, From: 7, To: 7, Seq: 2, Size: 0, Data: nil},
		{Kind: FrameAck, From: 1, To: 0, Seq: 17, Done: 12, Inc: 2},
		{Kind: FrameAck, From: 65535, To: 65534, Seq: 1},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range frameSeeds() {
		enc := EncodeFrame(f)
		g, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", f, err)
		}
		if g.Kind != f.Kind || g.From != f.From || g.To != f.To || g.Seq != f.Seq ||
			g.Size != f.Size || !bytes.Equal(g.Data, f.Data) || g.Done != f.Done || g.Inc != f.Inc {
			t.Fatalf("round trip changed the frame: %+v -> %+v", f, g)
		}
		r := &reliability{}
		r.selfCheckFrame(f)
	}
}

func TestFrameDecodeRejects(t *testing.T) {
	good := EncodeFrame(frameSeeds()[0])
	body := good[:len(good)-4]
	cases := map[string][]byte{
		"empty":              nil,
		"short":              good[:5],
		"bad checksum":       append(append([]byte{}, good[:len(good)-1]...), good[len(good)-1]^0xFF),
		"bad magic":          reseal(body, func(b []byte) { b[0] = 0x00 }),
		"bad version":        reseal(body, func(b []byte) { b[1] = 0x7F }),
		"bad kind":           reseal(body, func(b []byte) { b[2] = 9 }),
		"trailing junk":      reseal(append(append([]byte{}, body...), 0x00), nil),
		"done past admitted": EncodeFrame(&Frame{Kind: FrameAck, Seq: 3, Done: 4}),
	}
	for name, b := range cases {
		if _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// reseal mutates a frame's body and recomputes the checksum, so the
// mutation is reached rather than caught by the integrity check.
func reseal(body []byte, mutate func([]byte)) []byte {
	b := append([]byte{}, body...)
	if mutate != nil {
		mutate(b)
	}
	h := fnv.New32a()
	h.Write(b)
	return h.Sum(b)
}

// FuzzFrameDecode feeds DecodeFrame adversarial inputs: it must reject
// garbage with an error (never panic or over-read), and anything it
// accepts must survive a re-encode/re-decode round trip unchanged —
// the parser and printer agree on the format.
func FuzzFrameDecode(f *testing.F) {
	for _, fr := range frameSeeds() {
		f.Add(EncodeFrame(fr))
	}
	f.Add([]byte{})
	f.Add([]byte{frameMagic, frameVersion, FrameData})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if err != nil {
			return
		}
		enc := EncodeFrame(fr)
		g, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded accepted frame failed: %v", err)
		}
		if g.Kind != fr.Kind || g.From != fr.From || g.To != fr.To || g.Seq != fr.Seq ||
			g.Size != fr.Size || !bytes.Equal(g.Data, fr.Data) || g.Done != fr.Done || g.Inc != fr.Inc {
			t.Fatalf("round trip changed an accepted frame: %+v -> %+v", fr, g)
		}
	})
}
