package dsm

import (
	"fmt"
	"testing"

	"millipage/internal/pins"
	"millipage/internal/sim"
	"millipage/internal/trace"
)

func TestProtocolTracing(t *testing.T) {
	rec := trace.NewRecorder(4096)
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16, Views: 4, Trace: rec})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
			th.WriteU32(va, 5)
		}
		th.Barrier()
		if th.Host() == 1 {
			_ = th.ReadU32(va)
			th.Malloc(64)
			th.Lock(1)
			th.Unlock(1)
		}
		th.Barrier()
	})
	if rec.Total() == 0 {
		t.Fatal("no events recorded")
	}
	// The read transaction leaves its footprints: the fault, the request
	// to the manager, the forward, the reply, and the ack; host 1's malloc
	// and lock theirs.
	for _, want := range []string{
		"read fault",
		"READ_REQUEST",
		"READ_FWD",
		"READ_REPLY",
		"ACK",
		"BARRIER_ARRIVE",
		"ALLOC_REPLY",
		"LOCK_GRANT",
	} {
		if len(rec.Grep(want)) == 0 {
			t.Errorf("trace missing %q", want)
		}
	}
	// Events are time-ordered. Service traffic concerns no sharing unit,
	// an allocation's reply included, which carries one.
	evs := rec.Events()
	for i, e := range evs {
		if i > 0 && e.At < evs[i-1].At {
			t.Fatalf("events out of order at %d: %v then %v", i, evs[i-1], e)
		}
		if e.Kind != trace.Fault && mtype(e.Op) >= mAllocReq && (e.MP != -1 || e.Addr != 0 || e.Home != -1) {
			t.Errorf("service record %v names mp=%d addr=%#x home %d, want -1, 0, -1", e, e.MP, e.Addr, e.Home)
		}
	}
}

// TestRequestsLeaveTranslated: under the single home every directory
// request — a read, a write that invalidates two copies, a prefetch and a
// push — leaves its requester already translated, so each of its records
// names its home, host 0, and host 0 never looks an address up. The lookup
// moved rather than went: the latency of host 1's uncontended 128 B read
// fault, which pays it, is pinned.
func TestRequestsLeaveTranslated(t *testing.T) {
	rec := trace.NewRecorder(1 << 14)
	s := newSys(t, New, Options{Hosts: 4, SharedSize: 1 << 16, Views: 4, HomeOf: HomeCentral, Trace: rec})
	var a, b, c, d uint64
	var lat sim.Duration
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			a, b, c, d = th.Malloc(128), th.Malloc(128), th.Malloc(128), th.Malloc(128)
			th.WriteU32(b, 1)
		}
		th.Barrier()
		if th.Host() == 1 {
			th.Compute(sim.Millisecond) // until host 0 has sent every barrier release
			before := th.Stats.ReadFaultTime
			_ = th.ReadU32(a)
			lat = th.Stats.ReadFaultTime - before
		}
		th.Barrier()
		if th.Host() >= 2 {
			_ = th.ReadU32(b)
		}
		th.Barrier()
		switch th.Host() {
		case 0:
			th.Push(d)
		case 1:
			th.WriteU32(b, 2) // invalidates hosts 2 and 3, fetches from host 0
		case 2:
			th.Prefetch(c, 128)
			th.Compute(5 * sim.Millisecond)
			_ = th.ReadU32(c)
		}
		th.Barrier()
	})
	sent := map[string]int{}
	for _, e := range rec.Events() {
		switch name := trace.OpName(e.Op); {
		case e.Kind == trace.Fault:
		case name == "READ_REQUEST" || name == "WRITE_REQUEST" || name == "PUSH_REQUEST":
			if e.Kind == trace.Send {
				sent[name]++
			}
			if e.Home != 0 {
				t.Errorf("%v: names home %d, want 0", e, e.Home)
			}
		}
	}
	// The reads of hosts 1, 2 and 3 and host 2's prefetch; host 1's write; the push.
	if want := map[string]int{"READ_REQUEST": 4, "WRITE_REQUEST": 1, "PUSH_REQUEST": 1}; fmt.Sprint(sent) != fmt.Sprint(want) {
		t.Errorf("requests sent: %v, want %v", sent, want)
	}
	pins.Check(t, "RequestsLeaveTranslated", fmt.Sprintf("readfault=%d", int64(lat)))
}

func TestTracingFilter(t *testing.T) {
	rec := trace.NewRecorder(1024)
	rec.Filter = func(e trace.Event) bool { return e.Kind == trace.Fault }
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16, Views: 2, Trace: rec})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
			th.WriteU32(va, 1)
		}
		th.Barrier()
		if th.Host() == 1 {
			_ = th.ReadU32(va)
		}
	})
	for _, e := range rec.Events() {
		if e.Kind != trace.Fault {
			t.Fatalf("non-fault event passed the filter: %v", e)
		}
	}
	if rec.Len() == 0 {
		t.Fatal("no fault events recorded")
	}
}
