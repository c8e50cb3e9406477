package dsm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/pins"
	"millipage/internal/sim"
	"millipage/internal/trace"
	"millipage/internal/vm"
)

// newSys builds a cluster of the class mk sets, New's SC or NewMW's,
// named "test".
func newSys(t *testing.T, mk func(string, Options) (*System, error), opt Options) *System {
	t.Helper()
	s, err := mk("test", opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// run runs body on s and fails the test if Run fails.
func run(t *testing.T, s *System, body func(*Thread)) {
	t.Helper()
	if err := s.Run(body); err != nil {
		t.Fatal(err)
	}
}

// homeEntry is minipage id's directory entry, at its home.
func homeEntry(s *System, id int) *dirEntry { return s.Host(s.HomeOf(id)).entry(id) }

// queued counts the requests waiting in q.
func queued(q *FIFO) (n int) {
	for m := q.head; m != nil; m = m.next {
		n++
	}
	return n
}

// TestSystemRun holds the System's own lifecycle: Run makes
// ThreadsPerHost threads on every host, in global-id order with local ids
// per host, and a fault carries the Thread its body runs on as the
// handler's context (handleFault writes the fault's request into it); a
// thread's time after ResetStats is its compute and its fault; the run
// lasts as long as its slowest thread; Run refuses a nil body and a
// second run.
// copysetOf returns the hosts holding minipage id, in ascending order, and
// its owner.
func copysetOf(s *System, id int) (hs []int, owner int) {
	cs := s.copyset(id)
	for h := cs.Next(-1); h >= 0; h = cs.Next(h) {
		hs = append(hs, h)
	}
	return hs, int(s.dir[id/dirSlab][id%dirSlab].owner)
}

func TestSystemRun(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 2, ThreadsPerHost: 2, SharedSize: 1 << 16})
	var va uint64
	bodies := make([]*Thread, 4)
	run(t, s, func(th *Thread) {
		bodies[th.ThreadID()] = th
		if th.ThreadID() == 0 {
			va = th.Malloc(64)
		}
		th.Barrier()
		th.ResetStats()
		if th.ThreadID() == 3 {
			th.WriteU32(va, 7) // a write fault on host 1
		}
		th.Compute(sim.Duration(th.ThreadID()+1) * sim.Millisecond)
	})
	ths := s.Threads()
	if len(ths) != 4 || ths[0].NumThreads() != 4 {
		t.Fatalf("threads = %d (NumThreads %d), want 4", len(ths), ths[0].NumThreads())
	}
	var last sim.Time
	for i, th := range ths {
		if th != bodies[i] || th.ID != i || th.LID != i%2 || th.host != s.Host(th.Host()) || th.Host() != i/2 || s.Host(i/2).ID() != i/2 {
			t.Fatalf("thread %d is not the body's, local thread %d on host %d", i, i%2, i/2)
		}
		if want := sim.Duration(i+1) * sim.Millisecond; th.Stats.ComputeTime != want || th.Stats.Other() != 0 || th.Stats.SynchTime != 0 {
			t.Fatalf("thread %d: compute=%v synch=%v other=%v, want %v and nothing else since ResetStats", i, th.Stats.ComputeTime, th.Stats.SynchTime, th.Stats.Other(), want)
		}
		last = max(last, th.Stats.End)
	}
	if r := ths[3].req; r.h != ths[3].host || r.fw == nil || ths[3].Stats.WriteFaults != 1 {
		t.Fatalf("thread 3's fault: request on %v, %d write faults; want its own host's, 1", r.h, ths[3].Stats.WriteFaults)
	}
	if s.Elapsed() != sim.Duration(last) {
		t.Fatalf("Elapsed = %v, the last thread ended at %v", s.Elapsed(), last)
	}

	if err := s.Run(func(*Thread) {}); err == nil || !strings.Contains(err.Error(), "Run called twice") {
		t.Fatalf("second Run = %v, want the run-twice error", err)
	}
	if err := newSys(t, NewMW, Options{Hosts: 1, SharedSize: 1 << 16}).Run(nil); err == nil || err.Error() != "test: nil thread body" {
		t.Fatalf("Run(nil) = %v, want the nil-body error", err)
	}
}

// TestStoppedRunNamesUnfinishedThreads: a run that Eng.Stop ends before
// every thread finishes returns ErrStopped, naming each unfinished thread
// and what it waits for, so a harness's watchdog needs no count of its
// own. A thread that finished is not named.
func TestStoppedRunNamesUnfinishedThreads(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 4, SharedSize: 1 << 16})
	s.Eng.At(sim.Time(sim.Millisecond), s.Eng.Stop)
	err := s.Run(func(th *Thread) {
		switch th.Host() {
		case 0, 1:
			th.Barrier()
		case 2:
			th.Malloc(64)
			th.Compute(sim.Second) // named with no wait reason: its malloc is over
		}
	})
	want := ErrStopped{{Name: "app-0.0", Waiting: "barrier release"}, {Name: "app-1.0", Waiting: "barrier release"}, {Name: "app-2.0"}}
	if got, ok := err.(ErrStopped); !ok || !slices.Equal(got, want) {
		t.Fatalf("Run = %v, want %v", err, want)
	}
}

func TestSingleHostMallocWriteRead(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 1, SharedSize: 1 << 16, Views: 4})
	var got uint64
	run(t, s, func(th *Thread) {
		va := th.Malloc(64)
		th.WriteU64(va, 0xFEEDFACE)
		got = th.ReadU64(va)
	})
	if got != 0xFEEDFACE {
		t.Fatalf("got %#x", got)
	}
}

func TestTwoHostReadFetch(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16, Views: 4})
	var va uint64
	var got [2]uint32
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(128)
			th.WriteU32(va, 12345)
			th.WriteU32(va+4, 67890)
		}
		th.Barrier()
		got[th.Host()] = th.ReadU32(va) + th.ReadU32(va+4)
		th.Barrier()
	})
	if got[0] != 80235 || got[1] != 80235 {
		t.Fatalf("got %v", got)
	}
	// Host 1 must have taken exactly one read fault (both words share a
	// minipage).
	if rf := s.Host(1).AS.ReadFaults; rf != 1 {
		t.Fatalf("host 1 read faults = %d, want 1", rf)
	}
	// Directory: copyset = {0,1}, owner 0.
	cs, owner := copysetOf(s, 0)
	if !slices.Equal(cs, []int{0, 1}) || owner != 0 {
		t.Fatalf("copyset=%v owner=%d", cs, owner)
	}
}

func TestWriteInvalidatesReaders(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 4, SharedSize: 1 << 16, Views: 4})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
			th.WriteU32(va, 1)
		}
		th.Barrier()
		_ = th.ReadU32(va) // all hosts take read copies
		th.Barrier()
		if th.Host() == 3 {
			th.WriteU32(va, 99) // invalidates hosts 0,1,2
		}
		th.Barrier()
		if got := th.ReadU32(va); got != 99 {
			t.Errorf("host %d read %d, want 99", th.Host(), got)
		}
		th.Barrier()
	})
	// After the final reads, every host is back in the copyset; owner is
	// the last writer, host 3.
	cs, owner := copysetOf(s, 0)
	if owner != 3 {
		t.Fatalf("owner = %d, want 3", owner)
	}
	if !slices.Equal(cs, []int{0, 1, 2, 3}) {
		t.Fatalf("copyset = %v, want {0,1,2,3}", cs)
	}
	if inv := s.Host(0).Stats.Invalidations; inv < 2 {
		t.Fatalf("invalidations = %d, want >= 2", inv)
	}
}

// checkSWMR asserts the Single-Writer/Multiple-Readers invariant for a
// minipage across all hosts' application-view protections.
func checkSWMR(t *testing.T, s *System, info core.Info) {
	t.Helper()
	writable, readable := 0, 0
	for i := 0; i < s.NumHosts(); i++ {
		prot, err := s.Host(i).Region.ProtOf(info.Base)
		if err != nil {
			t.Fatal(err)
		}
		switch prot {
		case vm.ReadWrite:
			writable++
		case vm.ReadOnly:
			readable++
		}
	}
	if writable > 1 {
		t.Fatalf("SW/MR violated: %d writable copies", writable)
	}
	if writable == 1 && readable > 0 {
		t.Fatalf("SW/MR violated: writable copy coexists with %d readable", readable)
	}
}

// TestPageGrainAllocationOwnsEveryPage: an allocation spanning pages at
// page grain hands its allocator every fresh page writable, not only the
// first, so a 1-host run takes no fault at all.
func TestPageGrainAllocationOwnsEveryPage(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 1, SharedSize: 1 << 16, Grain: core.GrainPage})
	run(t, s, func(th *Thread) {
		for _, size := range []int{6000, 9000, 100, 5000} {
			va := th.Malloc(size)
			for off := 0; off < size; off += 512 {
				th.WriteU32(va+uint64(off), 1)
			}
		}
	})
	if as := s.Host(0).AS; as.ReadFaults+as.WriteFaults != 0 {
		t.Fatalf("%d read and %d write faults on one host, want none", as.ReadFaults, as.WriteFaults)
	}
}

func TestPrefetchHidesReadLatency(t *testing.T) {
	run := func(prefetch bool) sim.Duration {
		s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 20, Views: 1, Seed: 5})
		var va uint64
		run(t, s, func(th *Thread) {
			if th.Host() == 0 {
				va = th.Malloc(4096)
				th.Write(va, make([]byte, 4096))
			}
			th.Barrier()
			if th.Host() == 1 {
				if prefetch {
					th.Prefetch(va, 4096)
				}
				th.Compute(5 * sim.Millisecond) // overlap window
				th.Read(va, make([]byte, 4096))
			}
			th.Barrier()
		})
		// Read-fault time on host 1's thread.
		var rf sim.Duration
		for _, th := range s.Threads() {
			if th.Host() == 1 {
				rf = th.Stats.ReadFaultTime + th.Stats.PrefetchTime
			}
		}
		return rf
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("prefetch did not help: with=%v without=%v", with, without)
	}
}

// TestPushReplicatesToAllHosts: a push from host 0's writable copy leaves
// a read-only copy at every host. The owner's downgrade before it
// replicates is charged, so the time of the last push ack is pinned.
func TestPushReplicatesToAllHosts(t *testing.T) {
	rec := trace.NewRecorder(1 << 12)
	s := newSys(t, New, Options{Hosts: 4, SharedSize: 1 << 16, Views: 4, Trace: rec})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
			th.WriteU32(va, 41)
			th.WriteU32(va, 42)
			th.Push(va)
		}
		th.Barrier()
		th.Compute(20 * sim.Millisecond) // let the push finish
		th.Barrier()
		// Reads must hit local copies: no read faults on hosts 1..3.
		if got := th.ReadU32(va); got != 42 {
			t.Errorf("host %d read %d", th.Host(), got)
		}
	})
	for i := 1; i < 4; i++ {
		if rf := s.Host(i).AS.ReadFaults; rf != 0 {
			t.Fatalf("host %d read faults = %d, want 0 (push should predeliver)", i, rf)
		}
	}
	cs, _ := copysetOf(s, 0)
	if !slices.Equal(cs, []int{0, 1, 2, 3}) {
		t.Fatalf("copyset after push = %v", cs)
	}
	acks := rec.Grep("PUSH_ACK")
	if len(acks) == 0 {
		t.Fatal("no push ack traced")
	}
	pins.Check(t, "PushReplicatesToAllHosts", fmt.Sprintf("lastack=%d", int64(acks[len(acks)-1].At)))
}

func TestChunkedAllocationSharesMinipage(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 20, Views: 6, ChunkLevel: 4})
	var vas [8]uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			for i := range vas {
				vas[i] = th.Malloc(672)
				th.WriteU32(vas[i], uint32(i))
			}
		}
		th.Barrier()
		if th.Host() == 1 {
			// Reading the first molecule faults in the whole chunk: the
			// next three reads are free.
			for i := 0; i < 4; i++ {
				if got := th.ReadU32(vas[i]); got != uint32(i) {
					t.Errorf("molecule %d = %d", i, got)
				}
			}
			if rf := th.host.AS.ReadFaults; rf != 1 {
				t.Errorf("read faults = %d, want 1 (chunk fetched whole)", rf)
			}
		}
		th.Barrier()
	})
}

func TestManagerQueueDrainsInOrder(t *testing.T) {
	// Sequential writers via a lock: every transaction closes properly and
	// the final state is consistent; directory must be idle at the end,
	// with no read left in flight.
	s := newSys(t, New, Options{Hosts: 8, SharedSize: 1 << 16, Views: 2, Seed: 11})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(256)
			th.WriteU32(va, 0)
		}
		th.Barrier()
		for i := 0; i < 3; i++ {
			th.Lock(0)
			th.WriteU32(va, th.ReadU32(va)+1)
			th.Unlock(0)
		}
		th.Barrier()
	})
	for id := 0; id < s.mpt.NumMinipages(); id++ {
		e := homeEntry(s, id)
		if e.busy {
			t.Fatalf("minipage %d directory entry still busy after run", id)
		}
		if queued(&e.queue) != 0 {
			t.Fatalf("minipage %d has %d stranded queued requests", id, queued(&e.queue))
		}
		if e.await != 0 {
			t.Fatalf("minipage %d still has %d reads in flight", id, e.await)
		}
	}
}

func TestThreadStatsBreakdown(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16, Views: 2})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(128)
			th.WriteU32(va, 5)
		}
		th.Barrier()
		th.Compute(2 * sim.Millisecond)
		if th.Host() == 1 {
			_ = th.ReadU32(va)
			th.WriteU32(va, 6)
		}
		th.Barrier()
	})
	for _, th := range s.Threads() {
		st := th.Stats
		if st.ComputeTime != 2*sim.Millisecond {
			t.Fatalf("thread %d compute = %v", th.ID, st.ComputeTime)
		}
		if st.SynchTime <= 0 || st.Barriers != 2 {
			t.Fatalf("thread %d synch = %v barriers = %d", th.ID, st.SynchTime, st.Barriers)
		}
		if th.Host() == 1 {
			if st.ReadFaults != 1 || st.WriteFaults != 1 {
				t.Fatalf("host1 faults = %d/%d", st.ReadFaults, st.WriteFaults)
			}
			if st.ReadFaultTime <= 0 || st.WriteFaultTime <= 0 {
				t.Fatalf("host1 fault times = %v/%v", st.ReadFaultTime, st.WriteFaultTime)
			}
		}
		if st.Total() < st.ComputeTime+st.SynchTime {
			t.Fatalf("total %v < parts", st.Total())
		}
	}
}

// TestIdleWaitIsNotComputation: Idle advances the clock by exactly d and
// books it as idle time, outside every breakdown category; d <= 0 does
// nothing at all.
func TestIdleWaitIsNotComputation(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 1, SharedSize: 1 << 16, Views: 2})
	run(t, s, func(th *Thread) {
		th.ResetStats()
		start, evs := th.Now(), s.Eng.Counters()
		th.Idle(0)
		th.Idle(-sim.Millisecond)
		if th.Now() != start || th.Stats.IdleTime != 0 || s.Eng.Counters() != evs {
			t.Errorf("Idle(<= 0) moved the clock by %v, booked %v or scheduled an event", th.Now().Sub(start), th.Stats.IdleTime)
		}
		th.Idle(750 * sim.Microsecond)
		th.Compute(250 * sim.Microsecond)
		if got := th.Now().Sub(start); got != sim.Millisecond {
			t.Errorf("Idle(750us) + Compute(250us) took %v, want 1ms", got)
		}
		th.Stats.End = th.Now()
		if st := th.Stats; st.IdleTime != 750*sim.Microsecond || st.ComputeTime != 250*sim.Microsecond || st.Other() != 0 {
			t.Errorf("idle %v, compute %v, other %v; want 750us, 250us, 0", st.IdleTime, st.ComputeTime, st.Other())
		}
	})
}

// TestIdleHostPollsRequests: host 1 reads a minipage homed and held at
// host 0 while host 0's only thread waits. In Idle the host counts as
// idle, so its poller serves each arrival after exactly PollIdle; in
// Compute it is busy, and each waits for a sweeper tick.
func TestIdleHostPollsRequests(t *testing.T) {
	for _, idle := range []bool{true, false} {
		s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16, Views: 2})
		var va uint64
		var got fastmsg.Stats
		run(t, s, func(th *Thread) {
			if th.Host() == 0 {
				va = th.Malloc(128)
				th.WriteU32(va, 7)
			}
			th.Barrier()
			ep := th.host.EP
			if th.Host() == 1 {
				th.Compute(100 * sim.Microsecond) // host 0 is waiting by now
				if v := th.ReadU32(va); v != 7 {
					t.Errorf("read %d, want 7", v)
				}
			} else {
				before := ep.Stats()
				if idle {
					th.Idle(2 * sim.Millisecond)
				} else {
					th.Compute(2 * sim.Millisecond)
				}
				got = ep.Stats()
				got.Received -= before.Received
				got.ServiceDelay -= before.ServiceDelay
			}
			th.Barrier()
		})
		poll := s.Opt.Net.PollIdle * sim.Duration(got.Received)
		switch {
		case got.Received == 0:
			t.Errorf("idle=%v: host 0 received nothing while it waited", idle)
		case idle && got.ServiceDelay != poll:
			t.Errorf("Idle: %d arrivals waited %v, want PollIdle each (%v)", got.Received, got.ServiceDelay, poll)
		case !idle && got.ServiceDelay < s.Opt.Net.SweepShortLo*sim.Duration(got.Received):
			t.Errorf("Compute: %d arrivals waited %v, want a sweep gap each", got.Received, got.ServiceDelay)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Duration, ManagerStats) {
		s := newSys(t, New, Options{Hosts: 4, SharedSize: 1 << 16, Views: 4, Seed: 99})
		var va uint64
		run(t, s, func(th *Thread) {
			if th.Host() == 0 {
				va = th.Malloc(64)
				th.WriteU32(va, 0)
			}
			th.Barrier()
			for i := 0; i < 5; i++ {
				th.Lock(2)
				th.WriteU32(va, th.ReadU32(va)+1)
				th.Unlock(2)
				th.Compute(100 * sim.Microsecond)
			}
			th.Barrier()
		})
		return s.Elapsed(), s.ManagerStatsTotal()
	}
	e1, c1 := run()
	e2, c2 := run()
	if e1 != e2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v, %+v) vs (%v, %+v)", e1, c1, e2, c2)
	}
}

func TestViewIsolationAcrossMinipages(t *testing.T) {
	// Protections of minipages sharing a page must move independently:
	// after host 1 fetches minipage A for reading, minipage B on the same
	// page must still be NoAccess on host 1.
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16, Views: 4})
	var va, vb uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
			vb = th.Malloc(64)
			th.WriteU32(va, 1)
			th.WriteU32(vb, 2)
		}
		th.Barrier()
		if th.Host() == 1 {
			_ = th.ReadU32(va)
			pa, _ := th.host.Region.ProtOf(va)
			pb, _ := th.host.Region.ProtOf(vb)
			if pa != vm.ReadOnly {
				t.Errorf("A prot = %v, want ReadOnly", pa)
			}
			if pb != vm.NoAccess {
				t.Errorf("B prot = %v, want NoAccess (independent views)", pb)
			}
		}
		th.Barrier()
	})
}

func TestManyMinipagesStress(t *testing.T) {
	// A few hundred minipages cycling through owners; checks directory
	// consistency at scale.
	const n = 200
	s := newSys(t, New, Options{Hosts: 4, SharedSize: 1 << 20, Views: 16, Seed: 13})
	vas := make([]uint64, n)
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			for i := range vas {
				vas[i] = th.Malloc(200)
				th.WriteU32(vas[i], uint32(i))
			}
		}
		th.Barrier()
		// Each host writes its residue class.
		for i := th.Host(); i < n; i += th.NumHosts() {
			th.WriteU32(vas[i], th.ReadU32(vas[i])+1)
		}
		th.Barrier()
		// Everyone verifies everything.
		for i := 0; i < n; i++ {
			if got := th.ReadU32(vas[i]); got != uint32(i)+1 {
				t.Errorf("minipage %d = %d, want %d", i, got, i+1)
			}
		}
		th.Barrier()
	})
	for id := 0; id < s.mpt.NumMinipages(); id++ {
		e := homeEntry(s, id)
		if e.busy || queued(&e.queue) != 0 {
			t.Fatalf("entry %d not quiesced", id)
		}
		cs, _ := copysetOf(s, id)
		if len(cs) == 0 {
			t.Fatalf("entry %d empty copyset", id)
		}
	}
}

func TestRunStatsString(t *testing.T) {
	// Smoke-test the fmt paths of the small types.
	if s := mReadReq.String(); s != "READ_REQUEST" {
		t.Fatal(s)
	}
	if s := mtype(99).String(); s != "mtype(99)" {
		t.Fatal(s)
	}
	if s := fmt.Sprint(vm.ReadWrite); s != "ReadWrite" {
		t.Fatal(s)
	}
}

func TestRequestsCountedOnceWhenQueued(t *testing.T) {
	// Simultaneous faults on one minipage queue at the manager; each
	// request must count once in ReadReqs even though it is dispatched
	// again when dequeued.
	s := newSys(t, New, Options{Hosts: 4, SharedSize: 1 << 16, Views: 4, Seed: 3})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
			th.WriteU32(va, 1)
		}
		th.Barrier()
		if th.Host() != 0 {
			_ = th.ReadU32(va)
		}
		th.Barrier()
	})
	if s.Host(0).Stats.CompetingRequests == 0 || s.Host(0).Directory()[0].Competing == 0 {
		t.Fatal("expected queued competing requests, counted by the directory and by its minipage")
	}
	if got := s.Host(0).Stats.ReadReqs; got != 3 {
		t.Fatalf("ReadReqs = %d, want 3 (one per faulting host)", got)
	}
}
