package trace

import (
	"bytes"
	"strings"
	"testing"

	"millipage/internal/sim"
)

func TestRecordAndEvents(t *testing.T) {
	r := NewRecorder(8)
	r.RecordMsg(100, Send, 0, 1, -1, 0, 3, 0x2000)
	r.RecordFault(200, 1, false, 0x2000)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].At != 100 || evs[0].Kind != Send || evs[0].Peer != 1 {
		t.Fatalf("ev0 = %+v", evs[0])
	}
	if !strings.Contains(evs[1].String(), "FAULT") {
		t.Fatalf("render: %s", evs[1])
	}
}

func TestRingWraps(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.RecordMsg(sim.Time(i), Send, 0, 1, -1, 0, i, 0)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	// Chronological order, the last four.
	for i, e := range evs {
		if want := int32(6 + i); e.MP != want || e.At != sim.Time(want) {
			t.Fatalf("evs[%d] = %+v, want mp=%d", i, e, want)
		}
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d", r.Total())
	}
}

func TestFilter(t *testing.T) {
	r := NewRecorder(8)
	r.Filter = func(e Event) bool { return e.Kind == Fault }
	r.RecordMsg(1, Send, 0, 1, -1, 0, 3, 0)
	r.RecordFault(2, 0, true, 0x4000)
	if r.Len() != 1 || r.Events()[0].At != 2 {
		t.Fatalf("filter failed: %+v", r.Events())
	}
}

func TestDumpAndGrep(t *testing.T) {
	r := NewRecorder(2)
	r.RecordMsg(1, Send, 0, 1, -1, 0, 1, 0)
	r.RecordMsg(2, Send, 1, 0, -1, 1, 2, 0)
	r.RecordMsg(3, Send, 0, 1, -1, 2, 3, 0)
	var buf bytes.Buffer
	r.Dump(&buf)
	out := buf.String()
	if !strings.Contains(out, "READ_FWD mp=3") || !strings.Contains(out, "1 earlier events dropped") {
		t.Fatalf("dump:\n%s", out)
	}
	if hits := r.Grep("WRITE_REQUEST"); len(hits) != 1 {
		t.Fatalf("grep = %+v", hits)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{}) // must not panic
	r.RecordMsg(0, Send, 0, 1, -1, 0, 0, 0)
	r.RecordFault(0, 0, true, 0)
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	if r.Grep("anything") != nil {
		t.Fatal("nil recorder Grep returned events")
	}
}

func init() { RegisterOps([]string{"READ_REQUEST", "WRITE_REQUEST", "READ_FWD"}) }

// structuredFixture records a small mixed protocol history through the
// typed entry points, as the DSM layer does.
func structuredFixture() *Recorder {
	r := NewRecorder(32)
	r.RecordMsg(100, Send, 0, 2, 1, 0, 7, 0x2000) // READ_REQUEST mp=7, h0->h2, home h1
	r.RecordMsg(150, Handle, 2, 0, 1, 0, 7, 0)    // its handler
	r.RecordMsg(200, Send, 1, 3, 1, 1, 9, 0x3000) // WRITE_REQUEST mp=9
	r.RecordFault(250, 3, false, 0x4000)          // read fault on h3
	r.RecordFault(300, 3, true, 0x4100)           // write fault on h3
	return r
}

func TestGrepStructuredKind(t *testing.T) {
	r := structuredFixture()
	if got := r.Grep("SEND"); len(got) != 2 {
		t.Fatalf("SEND hits = %d, want 2: %+v", len(got), got)
	}
	faults := r.Grep("FAULT")
	if len(faults) != 2 || faults[0].Host != 3 {
		t.Fatalf("FAULT hits = %+v", faults)
	}
	if got := r.Grep("write fault"); len(got) != 1 || got[0].At != 300 {
		t.Fatalf("write fault hits = %+v", got)
	}
}

func TestGrepStructuredHost(t *testing.T) {
	r := structuredFixture()
	// h1 is never a source or destination here, only a home — homes must
	// still match.
	if got := r.Grep("h1"); len(got) != 3 {
		t.Fatalf("h1 hits = %d, want 3 (two sends + handle via home): %+v", len(got), got)
	}
	if got := r.Grep("h3"); len(got) != 3 {
		t.Fatalf("h3 hits = %d, want 3 (send dest + two faults): %+v", len(got), got)
	}
	if got := r.Grep("h9"); len(got) != 0 {
		t.Fatalf("h9 hits = %+v, want none", got)
	}
}

func TestGrepStructuredMinipage(t *testing.T) {
	r := structuredFixture()
	// mp=7 matches the message events; a fault's MP is not a minipage.
	got := r.Grep("mp=7")
	if len(got) != 2 {
		t.Fatalf("mp=7 hits = %d, want 2: %+v", len(got), got)
	}
	if got := r.Grep("mp=0"); len(got) != 0 {
		t.Fatalf("mp=0 matched faults: %+v", got)
	}
	for _, e := range got {
		if e.Kind == Fault || e.MP != 7 {
			t.Fatalf("mp=7 matched %+v", e)
		}
	}
	if got := r.Grep("mp=9"); len(got) != 1 || got[0].Kind != Send {
		t.Fatalf("mp=9 hits = %+v", got)
	}
}

func TestGrepOpName(t *testing.T) {
	r := structuredFixture()
	if got := r.Grep("WRITE_REQUEST"); len(got) != 1 || got[0].MP != 9 {
		t.Fatalf("WRITE_REQUEST hits = %+v", got)
	}
	// Substring of an op name.
	if got := r.Grep("REQUEST"); len(got) != 3 {
		t.Fatalf("REQUEST hits = %d, want 3: %+v", len(got), got)
	}
}

// TestStructuredRendering pins the historical text format produced from
// typed fields: instrumentation stores codes, rendering must still look
// exactly as the eager formatter did.
func TestStructuredRendering(t *testing.T) {
	r := structuredFixture()
	evs := r.Events()
	if s := evs[0].String(); !strings.Contains(s, "READ_REQUEST mp=7 addr=0x2000") ||
		!strings.Contains(s, "h0->h2") || !strings.Contains(s, "home=h1") {
		t.Fatalf("send render: %s", s)
	}
	if s := evs[1].String(); !strings.Contains(s, "READ_REQUEST mp=7") ||
		strings.Contains(s, "addr=") {
		t.Fatalf("handle render (no addr expected): %s", s)
	}
	if s := evs[3].String(); !strings.Contains(s, "read fault @0x4000") {
		t.Fatalf("fault render: %s", s)
	}
}

// TestRecordMsgAllocFree pins the enabled-path cost: recording a typed
// event into the ring performs no heap allocation.
func TestRecordMsgAllocFree(t *testing.T) {
	r := NewRecorder(64)
	if avg := testing.AllocsPerRun(1000, func() {
		r.RecordMsg(1, Send, 0, 1, 2, 3, 4, 0x1000)
	}); avg != 0 {
		t.Fatalf("RecordMsg allocates %.2f objects/event, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		r.RecordFault(1, 0, true, 0x1000)
	}); avg != 0 {
		t.Fatalf("RecordFault allocates %.2f objects/event, want 0", avg)
	}
}

// TestResetRecycles checks that a Reset recorder renders a repeated
// history identically — the recycled ring leaves no residue.
func TestResetRecycles(t *testing.T) {
	r := NewRecorder(8)
	run := func() string {
		r.RecordMsg(1, Send, 0, 1, 2, 1, 42, 0xbeef)
		r.RecordFault(2, 1, false, 0xbeef)
		r.RecordMsg(3, Handle, 1, 0, -1, 2, 5, 0)
		var buf bytes.Buffer
		r.Dump(&buf)
		return buf.String()
	}
	first := run()
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("Reset left Len=%d Total=%d", r.Len(), r.Total())
	}
	second := run()
	if first != second {
		t.Fatalf("recycled recorder rendered differently:\n%s\nvs\n%s", first, second)
	}
}

// BenchmarkRecordMsgDisabled measures the instrumentation guard as the
// DSM hot path uses it: a nil recorder must cost a branch, nothing more.
func BenchmarkRecordMsgDisabled(b *testing.B) {
	b.ReportAllocs()
	var r *Recorder
	for i := 0; i < b.N; i++ {
		if r.Enabled() {
			r.RecordMsg(sim.Time(i), Send, 0, 1, 2, 3, 4, 0x1000)
		}
	}
}

// BenchmarkRecordMsgEnabled measures the typed recording path.
func BenchmarkRecordMsgEnabled(b *testing.B) {
	b.ReportAllocs()
	r := NewRecorder(1 << 12)
	for i := 0; i < b.N; i++ {
		r.RecordMsg(sim.Time(i), Send, 0, 1, 2, 3, 4, 0x1000)
	}
}
