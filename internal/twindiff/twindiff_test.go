package twindiff

import (
	"bytes"
	"testing"
	"testing/quick"

	"millipage/internal/sim"
)

// must fails the test if err is not nil.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestDiffEmptyWhenUnchanged(t *testing.T) {
	page := make([]byte, 4096)
	twin := Twin(page)
	runs, err := Diff(twin, page)
	must(t, err)
	if len(runs) != 0 {
		t.Fatalf("runs = %d, want 0", len(runs))
	}
}

func TestDiffSingleChange(t *testing.T) {
	page := make([]byte, 4096)
	twin := Twin(page)
	page[100] = 0xFF
	runs, err := Diff(twin, page)
	must(t, err)
	if len(runs) != 1 || runs[0].Off != 100 || len(runs[0].Data) != 1 {
		t.Fatalf("runs = %+v", runs)
	}
}

func TestDiffCoalescesNearbyChanges(t *testing.T) {
	page := make([]byte, 4096)
	twin := Twin(page)
	page[10] = 1
	page[14] = 2 // gap of 3 < minGap: coalesce
	runs, _ := Diff(twin, page)
	if len(runs) != 1 {
		t.Fatalf("runs = %+v, want single coalesced run", runs)
	}
	page2 := make([]byte, 4096)
	twin2 := Twin(page2)
	page2[10] = 1
	page2[200] = 2 // far apart: separate runs
	runs2, _ := Diff(twin2, page2)
	if len(runs2) != 2 {
		t.Fatalf("runs2 = %+v, want two runs", runs2)
	}
}

func TestApplyRejectsOutOfRange(t *testing.T) {
	page := make([]byte, 16)
	if err := Apply(page, []Run{{Off: 12, Data: make([]byte, 8)}}); err == nil {
		t.Fatal("out-of-range run applied")
	}
}

func TestLengthMismatch(t *testing.T) {
	if _, err := Diff(make([]byte, 8), make([]byte, 16)); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	runs := []Run{{Off: 3, Data: []byte{1, 2, 3}}, {Off: 4000, Data: []byte{9}}}
	enc, err := Encode(runs)
	must(t, err)
	dec, err := Decode(enc)
	must(t, err)
	if len(dec) != 2 || dec[0].Off != 3 || !bytes.Equal(dec[1].Data, []byte{9}) {
		t.Fatalf("decoded %+v", dec)
	}
	if Size(runs) != 4+3+4+1 {
		t.Fatalf("Size = %d", Size(runs))
	}
}

func TestEncodeRejectsOverflow(t *testing.T) {
	cases := []struct {
		name string
		runs []Run
	}{
		{"offset past uint16", []Run{{Off: 1 << 16, Data: []byte{1}}}},
		{"negative offset", []Run{{Off: -1, Data: []byte{1}}}},
		{"length past uint16", []Run{{Off: 0, Data: make([]byte, 1<<16)}}},
		{"empty run", []Run{{Off: 0, Data: nil}}},
		{"unsorted", []Run{{Off: 10, Data: []byte{1}}, {Off: 0, Data: []byte{2}}}},
		{"overlapping", []Run{{Off: 0, Data: []byte{1, 2, 3}}, {Off: 2, Data: []byte{4}}}},
	}
	for _, tc := range cases {
		if _, err := Encode(tc.runs); err == nil {
			t.Errorf("%s: Encode(%+v) succeeded, want error", tc.name, tc.runs)
		}
	}
	// The boundary itself is fine: offset 65535 with one byte.
	enc, err := Encode([]Run{{Off: maxField, Data: []byte{7}}})
	if err != nil {
		t.Fatalf("boundary run rejected: %v", err)
	}
	dec, err := Decode(enc)
	if err != nil || len(dec) != 1 || dec[0].Off != maxField {
		t.Fatalf("boundary roundtrip: %+v, %v", dec, err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := Decode([]byte{0, 0, 255, 0, 1}); err == nil {
		t.Fatal("truncated data accepted")
	}
	// Zero-length run: Diff never produces one, so it is corruption.
	if _, err := Decode([]byte{5, 0, 0, 0}); err == nil {
		t.Fatal("empty run accepted")
	}
	// Unsorted: second run starts before the first ends.
	mustEnc := func(runs []Run) []byte {
		t.Helper()
		enc, err := Encode(runs)
		must(t, err)
		return enc
	}
	a := mustEnc([]Run{{Off: 100, Data: []byte{1, 2}}})
	b := mustEnc([]Run{{Off: 0, Data: []byte{3}}})
	if _, err := Decode(append(a, b...)); err == nil {
		t.Fatal("unsorted runs accepted")
	}
	// Overlapping: second run begins inside the first.
	c := mustEnc([]Run{{Off: 101, Data: []byte{9}}})
	if _, err := Decode(append(append([]byte(nil), a...), c...)); err == nil {
		t.Fatal("overlapping runs accepted")
	}
}

// The fundamental diff property: apply(twin, diff(twin, page)) == page.
func TestDiffApplyProperty(t *testing.T) {
	f := func(orig []byte, edits []struct {
		Off uint16
		Val byte
	}) bool {
		if len(orig) == 0 {
			orig = []byte{0}
		}
		if len(orig) > 4096 {
			orig = orig[:4096]
		}
		twin := Twin(orig)
		page := append([]byte(nil), orig...)
		for _, e := range edits {
			page[int(e.Off)%len(page)] = e.Val
		}
		runs, err := Diff(twin, page)
		if err != nil {
			return false
		}
		// Wire roundtrip included.
		enc, err := Encode(runs)
		if err != nil {
			return false
		}
		dec, err := Decode(enc)
		if err != nil {
			return false
		}
		restored := Twin(twin)
		if err := Apply(restored, dec); err != nil {
			return false
		}
		return bytes.Equal(restored, page)
	}
	must(t, quick.Check(f, &quick.Config{MaxCount: 300}))
}

// TestStreamingFormsMatch checks the zero-alloc entry points against the
// run-based ones: AppendDiff must emit the exact bytes of Encode(Diff()),
// and ApplyEncoded must patch identically to Decode+Apply, for random
// edit patterns.
func TestStreamingFormsMatch(t *testing.T) {
	f := func(orig []byte, edits []struct {
		Off uint16
		Val byte
	}) bool {
		if len(orig) == 0 {
			orig = []byte{0}
		}
		if len(orig) > 4096 {
			orig = orig[:4096]
		}
		twin := Twin(orig)
		page := append([]byte(nil), orig...)
		for _, e := range edits {
			page[int(e.Off)%len(page)] = e.Val
		}
		runs, err := Diff(twin, page)
		if err != nil {
			return false
		}
		want, err := Encode(runs)
		if err != nil {
			return false
		}
		got, err := AppendDiff(nil, twin, page)
		if err != nil {
			return false
		}
		if !bytes.Equal(got, want) {
			return false
		}
		restored := Twin(twin)
		if err := ApplyEncoded(restored, got); err != nil {
			return false
		}
		return bytes.Equal(restored, page)
	}
	must(t, quick.Check(f, &quick.Config{MaxCount: 300}))
}

// TestApplyEncodedAllOrNothing: a diff whose tail is corrupt must leave
// the page untouched — validation happens before any byte is written.
func TestApplyEncodedAllOrNothing(t *testing.T) {
	page := make([]byte, 256)
	twin := Twin(page)
	page[10] = 1
	page[200] = 2
	enc, err := AppendDiff(nil, twin, page)
	must(t, err)
	target := Twin(twin)
	bad := append(append([]byte(nil), enc...), 0xff) // truncated trailing header
	if err := ApplyEncoded(target, bad); err == nil {
		t.Fatal("corrupt diff accepted")
	}
	if !bytes.Equal(target, twin) {
		t.Fatal("failed apply modified the page")
	}
	// Out-of-range runs are also rejected before writing.
	short := target[:64]
	if err := ApplyEncoded(short, enc); err == nil {
		t.Fatal("out-of-range diff accepted")
	}
	if !bytes.Equal(short, twin[:64]) {
		t.Fatal("out-of-range apply modified the page")
	}
}

// TestDiffRoundTripAllocFree pins the lrc-mw steady state: with a
// pre-grown destination buffer, the encode+apply round trip the protocol
// performs on every release/fetch allocates nothing.
func TestDiffRoundTripAllocFree(t *testing.T) {
	page := make([]byte, 4096)
	twin := Twin(page)
	for i := 0; i < len(page); i += 97 {
		page[i] ^= 0x5a
	}
	buf := make([]byte, 0, 2*len(page))
	if avg := testing.AllocsPerRun(100, func() {
		enc, err := AppendDiff(buf[:0], twin, page)
		must(t, err)
		must(t, ApplyEncoded(page, enc))
	}); avg != 0 {
		t.Fatalf("diff round trip allocates %.2f objects/op, want 0", avg)
	}
}

func TestCostsMatchPaper(t *testing.T) {
	// 250 µs for a 4 KB page, linear in size.
	if got := CreateCost(4096); got != 250*sim.Microsecond {
		t.Fatalf("CreateCost(4096) = %v", got)
	}
	if got := CreateCost(2048); got != 125*sim.Microsecond {
		t.Fatalf("CreateCost(2048) = %v", got)
	}
	if TwinCost(4096) <= 0 || ApplyCost(100) <= 0 {
		t.Fatal("non-positive auxiliary costs")
	}
}

// diffBytewise is the reference Diff: one byte at a time, exactly the
// loop the word-skipping nextRun replaced.
func diffBytewise(twin, cur []byte) []Run {
	const minGap = 8
	var runs []Run
	for i := 0; i < len(cur); {
		if twin[i] == cur[i] {
			i++
			continue
		}
		start, last := i, i
		for j := i + 1; j < len(cur) && j-last < minGap; j++ {
			if twin[j] != cur[j] {
				last = j
			}
		}
		runs = append(runs, Run{Off: start, Data: append([]byte(nil), cur[start:last+1]...)})
		i = last + 1
	}
	return runs
}

// checkAgainstBytewise compares Diff and AppendDiff with the reference.
func checkAgainstBytewise(t *testing.T, twin, cur []byte) {
	t.Helper()
	want := diffBytewise(twin, cur)
	got, err := Diff(twin, cur)
	must(t, err)
	if len(got) != len(want) {
		t.Fatalf("len %d: %d runs, byte-wise reference gives %d", len(cur), len(got), len(want))
	}
	for i := range got {
		if got[i].Off != want[i].Off || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("len %d: run %d is [%d,+%d), reference gives [%d,+%d)", len(cur), i,
				got[i].Off, len(got[i].Data), want[i].Off, len(want[i].Data))
		}
	}
	wantEnc, err := Encode(want)
	must(t, err)
	gotEnc, err := AppendDiff(nil, twin, cur)
	must(t, err)
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("len %d: AppendDiff differs from the encoded reference", len(cur))
	}
}

// TestWordSkipMatchesBytewise pins the word-at-a-time scan to the
// byte-wise reference where the two could part: the only difference in
// the last 1-7 bytes (the byte tail after the last whole word), lengths
// that are not a multiple of 8, a difference in every byte lane of a
// word, and runs that coalesce across a word boundary.
func TestWordSkipMatchesBytewise(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 63, 100, 4093, 4096} {
		twin := make([]byte, n)
		for i := range twin {
			twin[i] = byte(i * 7)
		}
		checkAgainstBytewise(t, twin, Twin(twin)) // unchanged
		for back := 1; back <= 7 && back <= n; back++ {
			cur := Twin(twin)
			cur[n-back] ^= 0x80 // the only difference, in the tail
			checkAgainstBytewise(t, twin, cur)
		}
		for lane := 0; lane < 8 && lane < n; lane++ {
			cur := Twin(twin)
			cur[lane] ^= 1
			if far := lane + 7; far < n {
				cur[far] ^= 1 // gap 7: same run, across the word boundary
			}
			if far := lane + 16; far < n {
				cur[far] ^= 1 // gap 9: a run of its own
			}
			checkAgainstBytewise(t, twin, cur)
		}
	}
	f := func(orig []byte, edits []struct {
		Off uint16
		Val byte
	}) bool {
		if len(orig) == 0 {
			orig = []byte{0}
		}
		cur := Twin(orig)
		for _, e := range edits {
			cur[int(e.Off)%len(cur)] = e.Val
		}
		checkAgainstBytewise(t, orig, cur)
		return !t.Failed()
	}
	must(t, quick.Check(f, &quick.Config{MaxCount: 300}))
}
