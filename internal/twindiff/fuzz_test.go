package twindiff

import (
	"bytes"
	"testing"
)

// FuzzEncodeDecode feeds Decode adversarial byte strings: it must reject
// garbage with an error (never panic or over-read), and any frame it
// accepts must be canonical — re-encodable, re-decodable, and
// order-insensitive under Apply because accepted runs never overlap.
func FuzzEncodeDecode(f *testing.F) {
	// Seed corpus: real encodings from Diff plus hand-built edge cases.
	seed := func(runs []Run) {
		enc, err := Encode(runs)
		if err != nil {
			panic(err)
		}
		f.Add(enc)
	}
	seed(nil)
	seed([]Run{{Off: 0, Data: []byte{1}}})
	seed([]Run{{Off: 3, Data: []byte{1, 2, 3}}, {Off: 4000, Data: []byte{9}}})
	seed([]Run{{Off: maxField, Data: []byte{7}}})
	page := make([]byte, 4096)
	twin := Twin(page)
	page[0] = 1
	page[100] = 2
	page[101] = 3
	page[4095] = 4
	runs, err := Diff(twin, page)
	if err != nil {
		panic(err)
	}
	seed(runs)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})                      // short header
	f.Add([]byte{0, 0, 255, 0, 1})              // truncated data
	f.Add([]byte{5, 0, 0, 0})                   // empty run
	f.Add([]byte{9, 0, 1, 0, 1, 0, 0, 1, 0, 2}) // unsorted pair

	f.Fuzz(func(t *testing.T, b []byte) {
		runs, err := Decode(b)
		if err != nil {
			return
		}
		// Accepted frames are canonical: sorted, non-overlapping, non-empty.
		end := 0
		for i, r := range runs {
			if len(r.Data) == 0 {
				t.Fatalf("accepted empty run %d", i)
			}
			if r.Off < end {
				t.Fatalf("accepted overlapping/unsorted run %d: off %d < end %d", i, r.Off, end)
			}
			end = r.Off + len(r.Data)
		}
		// And they round-trip exactly.
		enc, err := Encode(runs)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("re-encode changed an accepted frame: %x -> %x", b, enc)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(dec) != len(runs) {
			t.Fatalf("round trip changed run count: %d -> %d", len(runs), len(dec))
		}
		// Apply to a page large enough for every run: must succeed and
		// reproduce exactly the decoded data at each offset.
		pg := make([]byte, end)
		if err := Apply(pg, dec); err != nil {
			t.Fatalf("apply of accepted frame failed: %v", err)
		}
		for _, r := range dec {
			if !bytes.Equal(pg[r.Off:r.Off+len(r.Data)], r.Data) {
				t.Fatalf("apply lost a run at %d", r.Off)
			}
		}
	})
}
