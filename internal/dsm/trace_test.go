package dsm

import (
	"testing"

	"millipage/internal/trace"
)

func TestProtocolTracing(t *testing.T) {
	rec := trace.NewRecorder(4096)
	s := newSys(t, Options{Hosts: 2, SharedSize: 1 << 16, Views: 4, Trace: rec})
	var va uint64
	err := run(s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
			th.WriteU32(va, 5)
		}
		th.Barrier()
		if th.Host() == 1 {
			_ = th.ReadU32(va)
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Total() == 0 {
		t.Fatal("no events recorded")
	}
	// The read transaction leaves its footprints: the fault, the request
	// to the manager, the forward, the reply, and the ack.
	for _, want := range []string{
		"read fault",
		"READ_REQUEST",
		"READ_FWD",
		"READ_REPLY",
		"ACK",
		"BARRIER_ARRIVE",
	} {
		if len(rec.Grep(want)) == 0 {
			t.Errorf("trace missing %q", want)
		}
	}
	// Events are time-ordered.
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events out of order at %d: %v then %v", i, evs[i-1], evs[i])
		}
	}
}

func TestTracingFilter(t *testing.T) {
	rec := trace.NewRecorder(1024)
	rec.Filter = func(e trace.Event) bool { return e.Kind == trace.Fault }
	s := newSys(t, Options{Hosts: 2, SharedSize: 1 << 16, Views: 2, Trace: rec})
	var va uint64
	err := run(s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
			th.WriteU32(va, 1)
		}
		th.Barrier()
		if th.Host() == 1 {
			_ = th.ReadU32(va)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rec.Events() {
		if e.Kind != trace.Fault {
			t.Fatalf("non-fault event passed the filter: %v", e)
		}
	}
	if rec.Len() == 0 {
		t.Fatal("no fault events recorded")
	}
}
