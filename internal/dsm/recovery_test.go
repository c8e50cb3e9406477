package dsm

import (
	"testing"

	"millipage/internal/faultnet"
	"millipage/internal/sim"
	"millipage/internal/trace"
)

// requestRecorder keeps the trace's directory-request records: every
// READ_REQUEST and WRITE_REQUEST sent or handled.
func requestRecorder() *trace.Recorder {
	rec := trace.NewRecorder(1 << 12)
	rec.Filter = func(e trace.Event) bool {
		name := trace.OpName(e.Op)
		return (e.Kind == trace.Send || e.Kind == trace.Handle) && (name == "READ_REQUEST" || name == "WRITE_REQUEST")
	}
	return rec
}

// homedAt has host home's thread allocate n 64-byte cells homed at home,
// writing cell i's first word as 7(i+1).
func homedAt(s *System, th *Thread, home, n int) []uint64 {
	var vas []uint64
	for len(vas) < n {
		va := th.Malloc(64)
		if mp, _ := s.mpt.Lookup(va); s.HomeOf(mp.ID) == home {
			th.WriteU32(va, uint32(len(vas)+1)*7)
			vas = append(vas, va)
		}
	}
	return vas
}

// TestOneRequestPerFault: under HomeMod, host 1 — home of every cell the
// others touch — crashes at 2ms and restarts at 30ms, three times the
// 10ms a request once waited before it was re-sent. Hosts 0 and 2 fault
// on its cells across the outage. The transport is the only recovery
// layer, so each host sends exactly one READ_REQUEST or WRITE_REQUEST per
// fault, and the homes admit exactly as many requests as the threads
// took faults.
func TestOneRequestPerFault(t *testing.T) {
	const (
		hosts, home = 3, 1
		crashAt     = 2 * sim.Millisecond
		restart     = 30 * sim.Millisecond
	)
	plan := &faultnet.Plan{Seed: 5, Crashes: []faultnet.Crash{{Host: home, At: sim.Time(crashAt), RestartAt: sim.Time(restart)}}}
	rec := requestRecorder()
	s := newSys(t, New, Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8, HomeOf: HomeMod, Faults: plan, Trace: rec})
	s.Eng.At(sim.Time(sim.Second), s.Eng.Stop) // watchdog
	// Cells 0 and 2 are hosts 0's and 2's to write.
	var vas []uint64
	run(t, s, func(th *Thread) {
		if th.Host() == home {
			vas = homedAt(s, th, home, 3)
		}
		th.Barrier()
		if th.Now() > sim.Time(crashAt) {
			t.Fatalf("setup ran until %v, past the crash at %v", th.Now(), crashAt)
		}
		if th.Host() != home {
			th.Compute(sim.Time(crashAt + 500*sim.Microsecond).Sub(th.Now()))
			for i, va := range vas {
				if got := th.ReadU32(va); got != uint32(i+1)*7 {
					t.Errorf("host %d: cell %d reads %d, want %d", th.Host(), i, got, (i+1)*7)
				}
			}
			th.WriteU32(vas[th.Host()], uint32(100+th.Host()))
			if th.Now() < sim.Time(restart) {
				t.Errorf("host %d: faults served by %v, before the home restarted at %v", th.Host(), th.Now(), restart)
			}
		}
		th.Barrier()
		for _, h := range []int{0, 2} {
			if got := th.ReadU32(vas[h]); got != uint32(100+h) {
				t.Errorf("host %d: cell %d reads %d after the barrier, want %d", th.Host(), h, got, 100+h)
			}
		}
	})
	faults := make([]uint64, hosts)
	var total uint64
	for _, th := range s.Threads() {
		n := th.Stats.ReadFaults + th.Stats.WriteFaults
		faults[th.Host()] += n
		total += n
	}
	sent := make([]uint64, hosts)
	for _, e := range rec.Events() {
		if e.Kind == trace.Send {
			sent[e.Host]++
		}
	}
	for h := range sent {
		if sent[h] != faults[h] {
			t.Errorf("host %d sent %d directory requests for %d faults, want one each", h, sent[h], faults[h])
		}
	}
	if faults[0] < 4 || faults[2] < 4 {
		t.Fatalf("faults by host %v: hosts 0 and 2 should each read three cells and write one", faults)
	}
	if ms := s.ManagerStatsTotal(); ms.ReadReqs+ms.WriteReqs != total {
		t.Errorf("the homes admitted %d reads and %d writes for %d faults, want one each", ms.ReadReqs, ms.WriteReqs, total)
	}
}

// TestRequestQueuedAtCrashIsServedOnce: host 0's read fault arrives at
// its cell's home, host 1, 5us before host 1 crashes. Host 1 is computing,
// so the request waits in the receive queue for a sweeper tick, at least
// 20us off, when the crash wipes the queue. The transport alone must
// bring it back: rolled back to its processed floor, host 1 re-accepts
// the requester's retransmission after the restart, and the fault
// completes once, with the home's bytes.
func TestRequestQueuedAtCrashIsServedOnce(t *testing.T) {
	const (
		hosts, home = 2, 1
		crashAt     = 3 * sim.Millisecond
		restart     = 20 * sim.Millisecond
	)
	plan := &faultnet.Plan{Seed: 5, Crashes: []faultnet.Crash{{Host: home, At: sim.Time(crashAt), RestartAt: sim.Time(restart)}}}
	rec := requestRecorder()
	s := newSys(t, New, Options{Hosts: hosts, SharedSize: 1 << 16, Views: 8, HomeOf: HomeMod, Faults: plan, Trace: rec})
	s.Eng.At(sim.Time(sim.Second), s.Eng.Stop) // watchdog
	c, net := s.Opt.Costs, s.Opt.Net
	// From the access to the request's arrival: the trap, the lookup, the
	// send and the wire.
	toArrival := c.AccessFault + c.MPTLookup + net.SendCPU(c.HeaderSize) + net.WireLatency(c.HeaderSize)
	arriveAt := sim.Time(crashAt - 5*sim.Microsecond)
	var vas []uint64
	var served sim.Time
	run(t, s, func(th *Thread) {
		if th.Host() == home {
			vas = homedAt(s, th, home, 1)
		}
		th.Barrier()
		if th.Now() > arriveAt-sim.Time(toArrival) {
			t.Fatalf("setup ran until %v, past the issue time %v", th.Now(), arriveAt-sim.Time(toArrival))
		}
		if th.Host() == home {
			th.Compute(sim.Time(restart + 10*sim.Millisecond).Sub(th.Now())) // busy across the crash
		} else {
			th.Compute((arriveAt - sim.Time(toArrival)).Sub(th.Now()))
			if got := th.ReadU32(vas[0]); got != 7 {
				t.Errorf("cell reads %d, want the home's 7", got)
			}
			served = th.Now()
		}
	})
	var sends, handles []trace.Event
	for _, e := range rec.Events() {
		if e.Host == 0 && e.Kind == trace.Send {
			sends = append(sends, e)
		}
		if e.Host == home && e.Kind == trace.Handle {
			handles = append(handles, e)
		}
	}
	if len(sends) != 1 || len(handles) != 1 {
		t.Fatalf("host 0 sent %d requests and the home handled %d, want one each", len(sends), len(handles))
	}
	// A send is recorded as it is posted, before its send CPU.
	if arrived := sends[0].At.Add(net.SendCPU(c.HeaderSize) + net.WireLatency(c.HeaderSize)); arrived != arriveAt {
		t.Fatalf("the request arrived at %v, want %v: 5us before the crash", arrived, arriveAt)
	}
	if handles[0].At < sim.Time(restart) || served < handles[0].At {
		t.Fatalf("handled at %v, fault served at %v: want both after the restart at %v", handles[0].At, served, restart)
	}
	if st := s.Net.Endpoint(0).Stats(); st.Retransmits == 0 {
		t.Fatal("no retransmission from the requester: the request was not lost at the crash")
	}
	if ms := s.ManagerStatsTotal(); ms.ReadReqs != 1 || ms.WriteReqs != 0 {
		t.Fatalf("the homes admitted %d reads and %d writes, want the one read", ms.ReadReqs, ms.WriteReqs)
	}
	if th := s.Threads()[0]; th.Stats.ReadFaults != 1 {
		t.Fatalf("host 0 took %d read faults, want 1", th.Stats.ReadFaults)
	}
}
