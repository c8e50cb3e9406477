package dsm

import (
	"slices"
	"testing"

	"millipage/internal/core"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// The directory rows a test counts by kind: a reply is counted once, at
// its bytes (spyRows reports DATA as its header's type).
var countedRows = []mtype{mReadReq, mWriteReq, mReadFwd, mWriteFwd, mInvalidateReq, mUpgradeGrant, mData, mAck}

// homedAt2 places every minipage at host 2, which allocates them, so that
// hosts 0 and 1 reach a home they are not.
func homedAt2(id, hosts int) int { return 2 }

// TestLockedRMWTakesOneRequest: hosts 0 and 1 take turns at lock 1,
// reading a counter and writing it back. From each host's second critical
// section on, its read is served exclusive — one READ_REQUEST, one
// WRITE_FWD to the other host, its WRITE_REPLY and the ack — and its write
// sends no message: it costs the trap and the local upgrade, no more. The
// first critical sections read shared and upgrade at the home.
func TestLockedRMWTakesOneRequest(t *testing.T) {
	const rounds = 6
	s := newSys(t, New, Options{Hosts: 3, SharedSize: 1 << 16, Views: 4, HomeOf: homedAt2})
	var va uint64
	var final uint32
	var msgs [rounds]map[mtype]int
	var writeSent [rounds]uint64
	var writeFault [rounds]sim.Duration
	round := -1
	spyRows(t, func(h *Host, typ mtype, info core.Info, from int, done bool) {
		if round >= 0 && done {
			msgs[round][typ]++
		}
	}, countedRows...)
	run(t, s, func(th *Thread) {
		h := th.Host()
		if h == 2 {
			va = th.Malloc(64)
			th.WriteU32(va, 0)
		}
		th.Barrier()
		for r := 0; r < rounds; r++ {
			if h == r%2 {
				th.Lock(1)
				round, msgs[r] = r, map[mtype]int{}
				v := th.ReadU32(va)
				sent, ft := s.Host(h).EP.Stats(), th.Stats.WriteFaultTime
				th.WriteU32(va, v+1)
				st := s.Host(h).EP.Stats()
				writeSent[r], writeFault[r] = st.Sent+st.Looped-sent.Sent-sent.Looped, th.Stats.WriteFaultTime-ft
				th.Compute(sim.Millisecond) // the read's ack lands
				round = -1
				th.Unlock(1)
			}
			th.Barrier()
		}
		if h == 2 {
			final = th.ReadU32(va)
		}
	})
	if final != rounds {
		t.Fatalf("counter = %d, want %d", final, rounds)
	}
	c := s.Opt.Costs
	upgrade := c.AccessFault + c.MPTLookup + c.SetProt + c.FaultResume
	for r := 0; r < rounds; r++ {
		if r < 2 {
			if msgs[r][mWriteReq] != 1 || msgs[r][mUpgradeGrant] != 1 {
				t.Errorf("round %d: %v, want the first critical section's write to upgrade at the home", r, msgs[r])
			}
			continue
		}
		want := map[mtype]int{mReadReq: 1, mWriteFwd: 1, mWriteReply: 1, mAck: 1}
		if len(msgs[r]) != len(want) {
			t.Errorf("round %d: %v, want %v", r, msgs[r], want)
		}
		for typ, n := range want {
			if msgs[r][typ] != n {
				t.Errorf("round %d: %d %v, want %d (all: %v)", r, msgs[r][typ], typ, n, msgs[r])
			}
		}
		if writeSent[r] != 0 || writeFault[r] != upgrade {
			t.Errorf("round %d: the write sent %d messages and took %v, want none and %v", r, writeSent[r], writeFault[r], upgrade)
		}
	}
	if n := s.Totals().ExclusiveReads; n != rounds-2 {
		t.Errorf("%d exclusive reads, want %d", n, rounds-2)
	}
}

// TestReadOnlyCriticalSectionStaysShared: host 0 writes a minipage under a
// lock, so its next read under one is served exclusive; it does not write
// that copy, and host 1's exclusive read takes it away. That clears host
// 0's rmw mark: its next read under the lock is served shared, beside
// host 1's copy.
func TestReadOnlyCriticalSectionStaysShared(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 3, SharedSize: 1 << 16, Views: 4, HomeOf: homedAt2})
	var va uint64
	var excl [5]uint64
	var marks [5][2]bool // host 0's rmw and excl marks after each step
	steps := []struct {
		host  int
		write bool
	}{{0, true}, {1, true}, {0, false}, {1, true}, {0, false}}
	run(t, s, func(th *Thread) {
		if th.Host() == 2 {
			va = th.Malloc(64)
			th.WriteU32(va, 0)
		}
		th.Barrier()
		for i, st := range steps {
			if th.Host() == st.host {
				th.Lock(1)
				v := th.ReadU32(va)
				if st.write {
					th.WriteU32(va, v+1)
				}
				th.Unlock(1)
			}
			th.Barrier()
			excl[i] = s.Totals().ExclusiveReads
			marks[i] = [2]bool{s.Host(0).marked(0, rmwMark), s.Host(0).marked(0, exclMark)}
		}
	})
	if want := [5]uint64{0, 0, 1, 2, 2}; excl != want {
		t.Errorf("exclusive reads after each step %v, want %v", excl, want)
	}
	if want := [5][2]bool{{true, false}, {true, false}, {true, true}, {false, false}, {false, false}}; marks != want {
		t.Errorf("host 0's rmw and excl marks after each step %v, want %v", marks, want)
	}
	if cs, _ := copysetOf(s, 0); !slices.Equal(cs, []int{0, 1}) {
		t.Errorf("copyset %v after host 0's last read, want {0, 1}: served shared", cs)
	}
	if prot, _ := s.Host(1).Region.ProtOf(va); prot != vm.ReadOnly {
		t.Errorf("host 1's copy is %v after host 0's shared read, want ReadOnly", prot)
	}
}

// TestReadFwdDuringLocalUpgrade: host 0 holds the only copy, read
// exclusive under a lock, and writes it at writeAt; host 1 reads it,
// lock-free, at offsets around that instant, so its READ_FWD reaches host 0
// before the write fault, during the local upgrade's charge, or after it.
// One that lands during the charge finds the copy already raised and
// downgrades it, shipping the bytes from before the write; the write then
// faults again and goes to the home as an upgrade. Every run ends with
// the write in every host's copy, and -tags invariants checks SW/MR at
// every protection change.
func TestReadFwdDuringLocalUpgrade(t *testing.T) {
	writeAt := sim.Time(20 * sim.Millisecond)
	var writing, during bool
	var asked int
	spyRows(t, func(h *Host, typ mtype, info core.Info, from int, done bool) {
		switch {
		case done || !writing:
		case typ == mReadFwd && h.ID() == 0:
			prot, _ := h.Region.ProtOf(info.Base)
			during = during || prot == vm.ReadWrite
		case typ == mWriteReq && from == 0:
			asked++
		}
	}, mReadFwd, mWriteReq)
	hit := 0
	for d := -300; d <= 100; d += 4 {
		s := newSys(t, New, Options{Hosts: 3, SharedSize: 1 << 16, Views: 4, HomeOf: homedAt2})
		writing, during, asked = false, false, 0
		var va uint64
		var got [3]uint32
		var read uint32
		var faults uint64
		err := s.Run(func(th *Thread) {
			h := th.Host()
			if h == 2 {
				va = th.Malloc(64)
				th.WriteU32(va, 1)
			}
			th.Barrier()
			if h == 0 { // sets host 0's rmw mark
				th.Lock(1)
				th.WriteU32(va, th.ReadU32(va)+1)
				th.Unlock(1)
			}
			th.Barrier()
			if h == 1 { // takes the copy away from host 0
				th.WriteU32(va, 3)
			}
			th.Barrier()
			switch h {
			case 0:
				th.Lock(1)
				v := th.ReadU32(va) // exclusive
				th.Compute(writeAt.Sub(th.Now()))
				f := th.Stats.WriteFaults
				writing = true
				th.WriteU32(va, v+1)
				writing, faults = false, th.Stats.WriteFaults-f
				th.Unlock(1)
			case 1:
				th.Compute(writeAt.Sub(th.Now()) + sim.Duration(d)*sim.Microsecond)
				read = th.ReadU32(va)
			}
			th.Barrier()
			got[h] = th.ReadU32(va)
		})
		if err != nil {
			t.Fatalf("offset %dus: %v", d, err)
		}
		if got != [3]uint32{4, 4, 4} || read != 3 && read != 4 {
			t.Errorf("offset %dus: host 1 read %d, then every host %v; want 3 or 4, then 4", d, read, got)
		}
		if during {
			hit++
			if read != 3 || faults != 2 || asked != 1 {
				t.Errorf("offset %dus: a READ_FWD during the upgrade: host 1 read %d, the write took %d faults and %d requests; want 3, 2 and 1", d, read, faults, asked)
			}
		}
	}
	if hit == 0 {
		t.Fatal("no READ_FWD landed during a local upgrade's charge: move the offsets")
	}
	t.Logf("%d runs had a READ_FWD land during the upgrade", hit)
}

// TestQueuedExclusiveReadIsServedShared: hosts 0 and 1 have each written
// a minipage under a lock, and host 2 has taken it back. Then both take
// their own lock and read-modify-write their own word of it at once. The
// first read is served exclusive; the second finds that transaction open,
// queues behind it and is served shared once it closes — a minipage two
// hosts use at the same time is not migrating — so its write goes to the
// home as an upgrade.
func TestQueuedExclusiveReadIsServedShared(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 3, SharedSize: 1 << 16, Views: 4, HomeOf: homedAt2})
	var va uint64
	var got [2]uint32
	var excl, competing [2]uint64
	var msgs map[mtype]int
	counting := false
	spyRows(t, func(h *Host, typ mtype, info core.Info, from int, done bool) {
		if counting && done {
			msgs[typ]++
		}
	}, countedRows...)
	run(t, s, func(th *Thread) {
		h := th.Host()
		if h == 2 {
			va = th.Malloc(64)
		}
		th.Barrier()
		for w := 0; w < 2; w++ { // sets host w's rmw mark
			if h == w {
				th.Lock(1 + w)
				th.WriteU32(va+uint64(4*w), th.ReadU32(va+uint64(4*w))+1)
				th.Unlock(1 + w)
			}
			th.Barrier()
		}
		if h == 2 {
			th.WriteU32(va+8, 1)
		}
		th.Barrier()
		if h == 2 {
			excl[0], competing[0] = s.Totals().ExclusiveReads, s.Host(2).Stats.CompetingRequests
			msgs, counting = map[mtype]int{}, true
		}
		th.Barrier()
		if h < 2 {
			th.Lock(1 + h)
			th.WriteU32(va+uint64(4*h), th.ReadU32(va+uint64(4*h))+1)
			th.Unlock(1 + h)
		}
		th.Barrier()
		if h == 2 {
			counting = false
			excl[1], competing[1] = s.Totals().ExclusiveReads, s.Host(2).Stats.CompetingRequests
		}
		if h < 2 {
			got[h] = th.ReadU32(va + uint64(4*h))
		}
	})
	if got != [2]uint32{2, 2} {
		t.Fatalf("hosts 0 and 1 read %v, want 2 and 2", got)
	}
	if n, c := excl[1]-excl[0], competing[1]-competing[0]; n != 1 || c < 1 {
		t.Errorf("the concurrent critical sections were served %d exclusive reads with %d competing requests, want 1 and at least 1", n, c)
	}
	if msgs[mWriteReply] != 1 || msgs[mReadReply] != 1 || msgs[mUpgradeGrant] != 1 {
		t.Errorf("%v, want one read served exclusive (WRITE_REPLY), one shared (READ_REPLY) and its write an upgrade", msgs)
	}
}

// TestPushDropsExclusiveRead: a push replicates the minipage, so its owner
// no longer holds the only copy. Hosts 0 and 1 take turns at lock 1
// incrementing a counter homed at host 2, so host 0's second critical
// section reads it exclusive; host 0 then pushes it and writes it. The
// write must go to the home and invalidate the pushed copies, not raise
// host 0's copy in place: host 1 reads the last count.
func TestPushDropsExclusiveRead(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 3, SharedSize: 1 << 16, Views: 4, HomeOf: homedAt2})
	var va uint64
	var got uint32
	run(t, s, func(th *Thread) {
		h := th.Host()
		if h == 2 {
			va = th.Malloc(64)
			th.WriteU32(va, 0)
		}
		th.Barrier()
		for r := 0; r < 3; r++ {
			if h == r%2 {
				th.Lock(1)
				v := th.ReadU32(va)
				if r == 2 {
					th.Push(va)
					th.Compute(5 * sim.Millisecond) // every host holds the pushed copy
				}
				th.WriteU32(va, v+1)
				th.Unlock(1)
			}
			th.Barrier()
		}
		if h == 1 {
			got = th.ReadU32(va)
		}
	})
	if got != 3 {
		t.Fatalf("host 1 reads %d after the pushed copy's write, want 3", got)
	}
}

// TestAllocationRaisesOwnedPage: at page grain an allocation that starts in
// a page its requester alone holds, idle, maps that page writable with the
// new ones. Hosts 0 and 1 take turns at lock 1 incrementing a counter on
// page 0, so host 1's second critical section reads it exclusive: the only
// copy, read-only until a write raises it. Host 1 then allocates 8 KB,
// from the rest of page 0 on, and its write to the counter takes no fault.
func TestAllocationRaisesOwnedPage(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16, Grain: core.GrainPage})
	var va, big uint64
	var faults uint64
	run(t, s, func(th *Thread) {
		h := th.Host()
		if h == 0 {
			va = th.Malloc(64)
		}
		th.Barrier()
		for r := 0; r < 3; r++ {
			if h == (r+1)%2 {
				th.Lock(1)
				v := th.ReadU32(va)
				if r == 2 {
					big = th.Malloc(8192)
					faults = s.Host(1).AS.WriteFaults
				}
				th.WriteU32(va, v+1)
				if r == 2 {
					faults = s.Host(1).AS.WriteFaults - faults
				}
				th.Unlock(1)
			}
			th.Barrier()
		}
	})
	if big/vm.PageSize != va/vm.PageSize {
		t.Fatalf("the allocation starts on page %d, the test wants the counter's, %d", big/vm.PageSize, va/vm.PageSize)
	}
	if faults != 0 {
		t.Fatalf("host 1's write after its allocation took %d faults, want none", faults)
	}
}
