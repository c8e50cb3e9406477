package dsm

import (
	"slices"
	"testing"

	"millipage/internal/sim"
	"millipage/internal/trace"
	"millipage/internal/vm"
)

// homeEvents returns the message events of minipage id that
// its home recorded, in order, each with its op name.
func homeEvents(s *System, rec *trace.Recorder, id int) (evs []trace.Event, ops []string) {
	for _, e := range rec.Events() {
		if e.Kind != trace.Fault && e.MP == int32(id) && e.Host == s.HomeOf(id) {
			evs, ops = append(evs, e), append(ops, trace.OpName(e.Op))
		}
	}
	return evs, ops
}

// TestReadersServedTogether: seven hosts read-fault one freshly written
// minipage right after a barrier. The home forwards each read to the
// writer as it arrives, without waiting for the previous reader's ack, so
// the reads overlap: the slowest reader waits less than twice the
// fastest, not seven round trips.
func TestReadersServedTogether(t *testing.T) {
	const writer = 3
	s := newSys(t, New, Options{Hosts: 8, SharedSize: 1 << 16, Views: 2, Seed: 5})
	var va uint64
	lat := make([]sim.Duration, 8)
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(128)
		}
		th.Barrier()
		if th.Host() == writer {
			th.WriteU32(va, 7)
		}
		th.Barrier()
		if th.Host() != writer {
			if got := th.ReadU32(va); got != 7 {
				t.Errorf("host %d read %d, want 7", th.Host(), got)
			}
			lat[th.Host()] = th.Stats.ReadFaultTime
		}
		th.Barrier()
	})
	fastest, slowest := sim.Duration(1<<62), sim.Duration(0)
	for h, d := range lat {
		if h == writer {
			continue
		}
		fastest, slowest = min(fastest, d), max(slowest, d)
	}
	if slowest >= 2*fastest {
		t.Errorf("read faults took %v to %v: the readers were served one after another", fastest, slowest)
	}
	e := homeEntry(s, 0)
	if cs, owner := copysetOf(s, 0); !slices.Equal(cs, []int{0, 1, 2, 3, 4, 5, 6, 7}) || owner != writer {
		t.Errorf("copyset %v owner %d, want every host and owner %d", cs, owner, writer)
	}
	if e.Competing == 0 {
		t.Error("no read found the entry busy: the reads did not overlap, and joining reads count as competing")
	}
}

// TestWriteWaitsForReadSet: a write that reaches the home while reads are
// in flight is queued, and admitted only once every reader has acked; it
// then invalidates every reader's copy.
func TestWriteWaitsForReadSet(t *testing.T) {
	rec := trace.NewRecorder(1 << 14)
	s := newSys(t, New, Options{Hosts: 8, SharedSize: 1 << 16, Views: 2, Seed: 3, Trace: rec})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(128)
			th.WriteU32(va, 1)
		}
		th.Barrier()
		switch h := th.Host(); {
		case h == 7:
			th.Compute(100 * sim.Microsecond) // reach the home while the reads are in flight
			th.WriteU32(va, 2)
		case h > 0:
			if got := th.ReadU32(va); got != 1 {
				t.Errorf("host %d read %d before the write, want 1", h, got)
			}
		}
		th.Barrier()
	})
	_, ops := homeEvents(s, rec, 0)
	acks, writeAt, firstInval := 0, -1, -1
	for i, op := range ops {
		switch {
		case op == "ACK" && firstInval < 0:
			acks++
		case op == "WRITE_REQUEST" && writeAt < 0:
			writeAt = i
		case op == "INVALIDATE_REQUEST" && firstInval < 0:
			firstInval = i
		}
	}
	if writeAt < 0 || firstInval < 0 {
		t.Fatalf("home events %v: no write request or no invalidation", ops)
	}
	if acks != 6 {
		t.Errorf("%d read acks reached the home before the write's first invalidation, want all 6 (events %v)", acks, ops)
	}
	if ackedBefore := countOps(ops[:writeAt], "ACK"); ackedBefore == 6 {
		t.Errorf("the write reached the home after every read had acked: it never waited on the read set (events %v)", ops)
	}
	for h := 1; h < 7; h++ {
		if prot, _ := s.Host(h).Region.ProtOf(va); prot != vm.NoAccess {
			t.Errorf("host %d keeps a %v copy after the write", h, prot)
		}
	}
	if cs, owner := copysetOf(s, 0); !slices.Equal(cs, []int{7}) || owner != 7 {
		t.Errorf("copyset %v owner %d after the write, want host 7 alone", cs, owner)
	}
}

func countOps(ops []string, op string) (n int) {
	for _, o := range ops {
		if o == op {
			n++
		}
	}
	return n
}

// TestThreadsOfOneHostReadTogether: two threads of one host read-fault the
// same minipage at the same time. Each sends its own request; the second
// joins the first's read, so both forwards leave the home before either
// ack arrives, and the entry closes on the second ack.
func TestThreadsOfOneHostReadTogether(t *testing.T) {
	rec := trace.NewRecorder(1 << 14)
	s := newSys(t, New, Options{Hosts: 2, ThreadsPerHost: 2, SharedSize: 1 << 16, Views: 2, Trace: rec})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.ID == 0 {
			va = th.Malloc(64)
			th.WriteU32(va, 9)
		}
		th.Barrier()
		if th.Host() == 1 {
			if got := th.ReadU32(va); got != 9 {
				t.Errorf("thread %d read %d, want 9", th.ID, got)
			}
			if th.Stats.ReadFaults != 1 {
				t.Errorf("thread %d took %d read faults, want 1", th.ID, th.Stats.ReadFaults)
			}
		}
		th.Barrier()
	})
	evs, ops := homeEvents(s, rec, 0)
	fwds := 0
	for i, op := range ops {
		if op == "ACK" {
			break
		}
		if op == "READ_FWD" && evs[i].Kind == trace.Send {
			fwds++
		}
	}
	if fwds != 2 {
		t.Errorf("%d read forwards left the home before the first ack, want 2 (events %v)", fwds, ops)
	}
	e := homeEntry(s, 0)
	if e.busy || e.await != 0 || queued(&e.queue) != 0 {
		t.Errorf("entry busy %v with %d reads in flight and %d queued after the run", e.busy, e.await, queued(&e.queue))
	}
	if cs, _ := copysetOf(s, 0); !slices.Equal(cs, []int{0, 1}) {
		t.Errorf("copyset %v, want hosts 0 and 1", cs)
	}
}
