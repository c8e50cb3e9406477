// Package trace is a lightweight event recorder for the simulated
// cluster: protocol messages, faults and protection changes, timestamped
// on the virtual clock. It exists for debugging protocol issues and for
// the -trace mode of the tools; recording is allocation-bounded (a ring
// buffer) so it can stay on during long runs.
//
// The hot path stores typed fields (kind, hosts, operation code,
// minipage id, address) in the ring and defers all string formatting to
// Dump/Events/String time: recording an event performs no allocation,
// and a nil *Recorder is inert, so instrumented code guards its
// field-gathering work behind Enabled().
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"millipage/internal/sim"
)

// Kind classifies an event.
type Kind uint8

const (
	Send Kind = iota
	Deliver
	Handle
	Fault
	Protect
	Note
)

var kindNames = [...]string{"SEND", "DELIVER", "HANDLE", "FAULT", "PROTECT", "NOTE"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// opNames maps protocol operation codes (Event.Op) to display names. It
// is appended to once per protocol package, from init functions, and
// read-only afterwards.
var opNames []string

// RegisterOps appends a message table's operation names to the shared
// registry and returns the code of its first entry. Each table (dsm's,
// lrc's, lrc-mw's, the kernel's services) registers once from an init
// function and records events as base+op, so they coexist in one binary
// without clobbering each other's names.
func RegisterOps(names []string) uint16 {
	base := len(opNames)
	opNames = append(opNames, names...)
	return uint16(base)
}

// OpName returns the registered name of op.
func OpName(op uint16) string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return "op(" + strconv.Itoa(int(op)) + ")"
}

// Fault-kind codes for Event.Op when Kind == Fault.
const (
	FaultRead  uint16 = 0
	FaultWrite uint16 = 1
)

// Event is one recorded occurrence. Message and fault events carry their
// payload in the typed fields (Op, MP, Addr) with Structured set; What
// holds free-form detail for Note events and the formatted legacy API,
// and overrides the typed rendering when non-empty.
type Event struct {
	At   sim.Time
	Kind Kind
	Host int // primary host (source for sends, location otherwise)
	Peer int // destination for sends/delivers; -1 otherwise
	Home int // home host of the minipage involved; -1 when inapplicable

	Op         uint16 // protocol op code (RegisterOpNames); fault kind for Fault events
	MP         int32  // minipage id; -1 when inapplicable
	Addr       uint64
	Structured bool // typed fields are meaningful; render from them

	What string // free-form detail ("READ_REQUEST mp=12", "write fault @0x2000_0040")

	// what holds the formatted payload of Recordf events while the event
	// sits in the ring: it aliases the recorder's per-slot arena buffer,
	// which is reused when the slot is overwritten. Events() materializes
	// it into What, so snapshots never alias recorder-owned memory.
	what []byte
}

// detail renders the event-specific text: What verbatim when set,
// otherwise the structured fields in the historical format.
func (e Event) detail() string {
	if e.What != "" || !e.Structured {
		if e.What == "" && len(e.what) > 0 {
			return string(e.what)
		}
		return e.What
	}
	switch e.Kind {
	case Fault:
		word := "read"
		if e.Op == FaultWrite {
			word = "write"
		}
		return fmt.Sprintf("%s fault @%#x", word, e.Addr)
	case Handle, Deliver:
		return fmt.Sprintf("%s mp=%d", OpName(e.Op), e.MP)
	default:
		return fmt.Sprintf("%s mp=%d addr=%#x", OpName(e.Op), e.MP, e.Addr)
	}
}

func (e Event) String() string {
	home := ""
	if e.Home >= 0 {
		home = fmt.Sprintf("  home=h%d", e.Home)
	}
	if e.Peer >= 0 {
		return fmt.Sprintf("%12v  %-8s h%d->h%d  %s%s", e.At, e.Kind, e.Host, e.Peer, e.detail(), home)
	}
	return fmt.Sprintf("%12v  %-8s h%d       %s%s", e.At, e.Kind, e.Host, e.detail(), home)
}

// Recorder is a bounded ring buffer of events. The zero value is
// unusable; create one with NewRecorder. It is not safe for concurrent
// OS-thread use, which matches the engine's one-process-at-a-time
// execution model.
type Recorder struct {
	events  []Event
	next    int
	wrapped bool
	total   uint64

	// bufs is the payload arena for Recordf events: one reusable byte
	// buffer per ring slot, created on first use. A slot's buffer is
	// reformatted in place when the ring wraps over it, so a long traced
	// run reaches a steady state with no per-event allocation beyond the
	// formatter's own argument handling.
	bufs [][]byte

	// Filter, if set, drops events for which it returns false.
	Filter func(Event) bool
}

// NewRecorder returns a recorder holding the last cap events.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{events: make([]Event, capacity)}
}

// Enabled reports whether events are being recorded. Instrumented code
// checks it before gathering event fields so that tracing costs nothing
// when no recorder is attached (the receiver may be nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends an event (subject to the filter). It does not allocate.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if r.Filter != nil && !r.Filter(e) {
		return
	}
	r.store(e)
}

// store appends e to the ring unconditionally (the caller has already
// applied the filter).
func (r *Recorder) store(e Event) {
	r.total++
	r.events[r.next] = e
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.wrapped = true
	}
}

// RecordMsg records a protocol-message event (Send/Deliver/Handle) from
// typed fields, deferring all formatting to render time.
func (r *Recorder) RecordMsg(at sim.Time, kind Kind, host, peer, home int, op uint16, mp int, addr uint64) {
	if r == nil {
		return
	}
	r.Record(Event{At: at, Kind: kind, Host: host, Peer: peer, Home: home,
		Op: op, MP: int32(mp), Addr: addr, Structured: true})
}

// RecordFault records a read/write fault event from typed fields.
func (r *Recorder) RecordFault(at sim.Time, host int, write bool, addr uint64) {
	if r == nil {
		return
	}
	op := FaultRead
	if write {
		op = FaultWrite
	}
	r.Record(Event{At: at, Kind: Fault, Host: host, Peer: -1, Home: -1,
		Op: op, Addr: addr, Structured: true})
}

// Recordf is Record with formatting (no home host attached). The
// formatted payload lands in the recorder's per-slot arena rather than a
// fresh string, so steady-state recording is allocation-free apart from
// the formatter's argument boxing; it remains for free-form notes and
// callers without a protocol op code.
func (r *Recorder) Recordf(at sim.Time, kind Kind, host, peer int, format string, args ...any) {
	r.RecordfHome(at, kind, host, peer, -1, format, args...)
}

// RecordfHome is Recordf with the home host of the involved minipage —
// the host whose directory shard runs the transaction (host 0 under
// central management).
func (r *Recorder) RecordfHome(at sim.Time, kind Kind, host, peer, home int, format string, args ...any) {
	if r == nil {
		return
	}
	if r.bufs == nil {
		r.bufs = make([][]byte, len(r.events))
	}
	buf := fmt.Appendf(r.bufs[r.next][:0], format, args...)
	r.bufs[r.next] = buf // keep grown capacity even if the filter drops the event
	e := Event{At: at, Kind: kind, Host: host, Peer: peer, Home: home, what: buf}
	if r.Filter != nil {
		// The filter sees a materialized copy: handing it the arena slice
		// would let it retain payload bytes the next wrap rewrites.
		mat := e
		mat.What = string(mat.what)
		mat.what = nil
		if !r.Filter(mat) {
			return
		}
	}
	r.store(e)
}

// Len reports the number of retained events.
func (r *Recorder) Len() int {
	if r.wrapped {
		return len(r.events)
	}
	return r.next
}

// Total reports how many events were recorded overall (including those
// that fell off the ring).
func (r *Recorder) Total() uint64 { return r.total }

// Events returns the retained events in chronological order. Arena-held
// payloads are materialized into What, so the snapshot stays valid after
// further recording reuses the underlying buffers.
func (r *Recorder) Events() []Event {
	var out []Event
	if !r.wrapped {
		out = make([]Event, r.next)
		copy(out, r.events[:r.next])
	} else {
		out = make([]Event, 0, len(r.events))
		out = append(out, r.events[r.next:]...)
		out = append(out, r.events[:r.next]...)
	}
	for i := range out {
		if len(out[i].what) > 0 {
			out[i].What = string(out[i].what)
			out[i].what = nil
		}
	}
	return out
}

// Reset discards all retained events and the total count but keeps the
// ring and the payload arena, so a recorder can be recycled across runs
// without re-allocating.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	clear(r.events)
	r.next = 0
	r.wrapped = false
	r.total = 0
}

// Dump writes the retained events to w, one per line.
func (r *Recorder) Dump(w io.Writer) {
	for _, e := range r.Events() {
		fmt.Fprintln(w, e.String())
	}
	if dropped := r.total - uint64(r.Len()); dropped > 0 {
		fmt.Fprintf(w, "(%d earlier events dropped)\n", dropped)
	}
}

// Grep returns the retained events matching query, testing structured
// fields instead of rendering each event to a string. Supported query
// forms:
//
//   - "h<N>"    — host N appears as source, peer, or home
//   - "mp=<N>"  — the event concerns minipage N
//   - a kind name ("SEND", "FAULT", ...) — all events of that kind
//   - anything else — substring of the op name, the fault description
//     ("read fault" / "write fault"), or the free-form What text
func (r *Recorder) Grep(query string) []Event {
	if r == nil {
		return nil
	}
	match := compileQuery(query)
	var out []Event
	for _, e := range r.Events() {
		if match(e) {
			out = append(out, e)
		}
	}
	return out
}

// compileQuery parses query once and returns the per-event predicate.
func compileQuery(query string) func(Event) bool {
	if n, ok := strings.CutPrefix(query, "h"); ok {
		if id, err := strconv.Atoi(n); err == nil {
			return func(e Event) bool {
				return e.Host == id || e.Peer == id || e.Home == id
			}
		}
	}
	if n, ok := strings.CutPrefix(query, "mp="); ok {
		if mp, err := strconv.Atoi(n); err == nil {
			return func(e Event) bool {
				return e.Structured && e.Kind != Fault && e.MP == int32(mp)
			}
		}
	}
	for k, name := range kindNames {
		if query == name {
			k := Kind(k)
			return func(e Event) bool { return e.Kind == k }
		}
	}
	return func(e Event) bool {
		if strings.Contains(e.What, query) {
			return true
		}
		if !e.Structured {
			return false
		}
		if e.Kind == Fault {
			word := "read fault"
			if e.Op == FaultWrite {
				word = "write fault"
			}
			return strings.Contains(word, query)
		}
		return strings.Contains(OpName(e.Op), query)
	}
}
