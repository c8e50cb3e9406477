// Package trace is a lightweight event recorder for the simulated
// cluster: protocol messages and faults, timestamped on the virtual
// clock. It exists for debugging protocol issues and for the -trace mode
// of the tools; recording is allocation-bounded (a ring buffer) so it can
// stay on during long runs.
//
// The hot path stores typed fields (kind, hosts, operation code,
// minipage id, address) in the ring and defers all string formatting to
// Dump/String time: recording an event performs no allocation,
// and a nil *Recorder is inert, so instrumented code guards its
// field-gathering work behind Enabled().
package trace

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"millipage/internal/sim"
)

// Kind classifies an event.
type Kind uint8

const (
	Send Kind = iota
	Handle
	Fault
)

var kindNames = [...]string{"SEND", "HANDLE", "FAULT"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// opNames maps protocol operation codes (Event.Op) to display names.
var opNames []string

// RegisterOps names the operation codes, by code: the kernel registers its
// one message table, whose message types are the codes, at init.
func RegisterOps(names []string) { opNames = names }

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

// Event is one recorded occurrence, a message or a fault, in typed
// fields; rendering formats them.
type Event struct {
	At   sim.Time
	Kind Kind
	Host int // primary host (source for sends, location otherwise)
	Peer int // destination for sends, sender for handles; -1 for faults
	Home int // home host of the minipage involved; -1 when inapplicable

	Op   uint16 // protocol op code (RegisterOps); fault kind for Fault events
	MP   int32  // minipage id; -1 when inapplicable
	Addr uint64
}

// detail renders the event-specific text from the typed fields.
func (e Event) detail() string {
	switch e.Kind {
	case Fault:
		word := "read"
		if e.Op == FaultWrite {
			word = "write"
		}
		return fmt.Sprintf("%s fault @%#x", word, e.Addr)
	case Handle:
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
	if r == nil || r.Filter != nil && !r.Filter(e) {
		return
	}
	r.total++
	r.events[r.next] = e
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.wrapped = true
	}
}

// RecordMsg records a protocol-message event (Send/Handle) from
// typed fields, deferring all formatting to render time.
func (r *Recorder) RecordMsg(at sim.Time, kind Kind, host, peer, home int, op uint16, mp int, addr uint64) {
	if r == nil {
		return
	}
	r.Record(Event{At: at, Kind: kind, Host: host, Peer: peer, Home: home,
		Op: op, MP: int32(mp), Addr: addr})
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
		Op: op, Addr: addr})
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

// Events returns a copy of the retained events in chronological order.
func (r *Recorder) Events() []Event {
	if !r.wrapped {
		return slices.Clone(r.events[:r.next])
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	return append(out, r.events[:r.next]...)
}

// Reset discards all retained events and the total count but keeps the
// ring, so a recorder can be recycled across runs without re-allocating.
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
//   - anything else — substring of the op name or the fault description
//     ("read fault" / "write fault")
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
				return e.Kind != Fault && e.MP == int32(mp)
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
