package dsm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// TestHomeSeedsFromTranslation: no message seeds a directory entry. Host
// 2 allocates minipage 1, homed at host 1, and host 0 then reads it: that
// read request is the first message host 1's shard gets about the
// minipage, and the entry it finds was placed from the allocation
// authority's record — the allocator's copy, owned by it. The read then
// leaves host 2 the owner and adds host 0 to the copyset.
func TestHomeSeedsFromTranslation(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 3, SharedSize: 1 << 16, Views: 4})
	var va uint64
	var before []int
	beforeOwner, beforeReqs := -1, uint64(0)
	run(t, s, func(th *Thread) {
		if th.Host() == 2 {
			th.Malloc(64)      // minipage 0, homed at host 0
			va = th.Malloc(64) // minipage 1, homed at host 1
			th.WriteU32(va, 5)
		}
		th.Barrier()
		if th.Host() == 0 {
			before, beforeOwner = s.Copyset(1)
			beforeReqs = s.Host(1).Stats.ReadReqs + s.Host(1).Stats.WriteReqs
			if got := th.ReadU32(va); got != 5 {
				t.Errorf("host 0 reads %d, want 5", got)
			}
		}
		th.Barrier()
	})
	if beforeReqs != 0 {
		t.Fatalf("host 1's shard served %d requests before host 0's read, want 0", beforeReqs)
	}
	if !slices.Equal(before, []int{2}) || beforeOwner != 2 {
		t.Fatalf("minipage 1 before any request: copyset %v owner %d, want {2} owned by 2", before, beforeOwner)
	}
	cs, owner := s.Copyset(1)
	if !slices.Equal(cs, []int{0, 2}) || owner != 2 {
		t.Fatalf("minipage 1: copyset %v owner %d, want {0, 2} owned by 2", cs, owner)
	}
	if rr := s.Host(1).Stats.ReadReqs; rr != 1 {
		t.Fatalf("host 1's shard served %d read requests, want 1", rr)
	}
}

func TestHomeOfOverride(t *testing.T) {
	// A custom HomeOf places every minipage at the last host.
	s := newSys(t, New, Options{
		Hosts: 3, SharedSize: 1 << 16, Views: 4,
		HomeOf: func(id, hosts int) int { return hosts - 1 },
	})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va = th.Malloc(64)
			th.WriteU32(va, 7)
		}
		th.Barrier()
		if got := th.ReadU32(va); got != 7 {
			t.Errorf("host %d read %d", th.Host(), got)
		}
		th.Barrier()
	})
	if e := s.Host(2).entryOrNil(0); e == nil {
		t.Fatal("entry not at the overridden home")
	}
	if e := s.Host(0).entryOrNil(0); e != nil {
		t.Fatal("host 0 kept a directory entry it is not home to")
	}
}

// TestHomeSourcesReads: a read of a minipage whose home holds a copy is
// served from the home's copy, though its owner holds one too, and the
// forward to itself never reaches the wire. Every minipage is homed at
// host 2; host 1 allocates and writes one, host 2 reads it, then host 3
// reads it while every other thread computes: over host 3's read the home
// sends the reply header and the bytes and nothing else, and the owner
// sends nothing. Under -tags invariants every protection change on the way
// checks SW/MR across all hosts.
func TestHomeSourcesReads(t *testing.T) {
	s := newSys(t, New, Options{
		Hosts: 4, SharedSize: 1 << 16, Views: 4,
		HomeOf: func(id, hosts int) int { return 2 },
	})
	var va uint64
	var home, owner [2]fastmsg.Stats
	run(t, s, func(th *Thread) {
		if th.Host() == 1 {
			va = th.Malloc(64)
			th.WriteU32(va, 7)
		}
		th.Barrier()
		if th.Host() == 2 && th.ReadU32(va) != 7 {
			t.Error("home read a stale copy")
		}
		th.Barrier()
		if th.Host() != 3 {
			th.Compute(50 * sim.Millisecond)
			return
		}
		home[0], owner[0] = s.Host(2).EP.Stats(), s.Host(1).EP.Stats()
		if got := th.ReadU32(va); got != 7 {
			t.Errorf("host 3 read %d, want 7", got)
		}
		home[1], owner[1] = s.Host(2).EP.Stats(), s.Host(1).EP.Stats()
	})
	if sent, looped := home[1].Sent-home[0].Sent, home[1].Looped-home[0].Looped; sent != 2 || looped != 1 {
		t.Errorf("over the read the home sent %d on the wire and %d to itself, want 2 (reply and bytes) and 1 (its forward)", sent, looped)
	}
	if sent := owner[1].Sent - owner[0].Sent; sent != 0 {
		t.Errorf("the owner sent %d over a read its home sourced", sent)
	}
	if cs, o := s.Copyset(0); !slices.Equal(cs, []int{1, 2, 3}) || o != 1 {
		t.Errorf("copyset %v owner %d, want {1, 2, 3} owned by 1", cs, o)
	}
}

// TestMisdeliveredRequestNamesHome: a directory request delivered to a
// host that is not the minipage's home, in the barrier epoch it was routed
// in, panics out of Run naming the host, the minipage and its home, under
// the single home and under HomeMod, and once a barrier has moved the home
// (host 2 writes minipage 1 alone in two epochs, host 0 reading it after
// each), naming the home it moved to. It is the one misrouting check;
// there is no per-placement one.
func TestMisdeliveredRequestNamesHome(t *testing.T) {
	for _, tc := range []struct {
		name     string
		homeOf   func(id, hosts int) int
		to, home int // where the request goes, and minipage 1's home on three hosts
		move     bool
	}{{"single-home", HomeCentral, 2, 0, false}, {"home-mod", HomeMod, 2, 1, false},
		{"moved-home", HomeMod, 0, 2, true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSys(t, New, Options{Hosts: 3, SharedSize: 1 << 16, Views: 4, HomeOf: tc.homeOf})
			want := fmt.Sprintf("dsm: host %d got request for minipage 1 homed at host %d", tc.to, tc.home)
			defer func() {
				if got := fmt.Sprint(recover()); got != want {
					t.Fatalf("Run panicked with %q, want %q", got, want)
				}
			}()
			var va uint64
			err := s.Run(func(th *Thread) {
				if th.Host() == 0 {
					th.Malloc(64)
					va = th.Malloc(64) // minipage 1
				}
				th.Barrier()
				for r := uint32(1); tc.move && r <= 2; r++ {
					if th.Host() == 2 {
						th.WriteU32(va, r)
					}
					th.Barrier()
					if th.Host() == 0 {
						th.ReadU32(va)
					}
					th.Barrier()
				}
				if th.Host() == 1 {
					_, info, _ := th.host.route(va)
					th.host.sendNew(th.p, tc.to, pmsg{Type: mReadReq, From: 1, Addr: va, Info: info, Epoch: th.host.epoch})
				}
				th.Barrier()
			})
			t.Fatalf("Run returned %v", err)
		})
	}
}

// TestCentralHomeBasedEquivalence runs the same barrier-phased,
// histogram-style workload under both management modes. The program is
// DRF and phase-deterministic, so application results — final variable
// values and per-host fault counts — must be byte-identical; only the
// load placement (and hence timing) may differ.
func TestCentralHomeBasedEquivalence(t *testing.T) {
	const (
		hosts  = 8
		nVars  = 32
		rounds = 4
	)
	type outcome struct {
		vals    [nVars]uint32
		rf, wf  [hosts]uint64
		invs    uint64
		shardRq [hosts]uint64
	}
	run := func(homeOf func(id, hosts int) int) outcome {
		s := newSys(t, New, Options{Hosts: hosts, SharedSize: 1 << 20, Views: 8, Seed: 42, HomeOf: homeOf})
		var vas [nVars]uint64
		var out outcome
		run(t, s, func(th *Thread) {
			if th.Host() == 0 {
				for v := range vas {
					vas[v] = th.Malloc(96)
					th.WriteU32(vas[v], uint32(v))
				}
			}
			th.Barrier()
			for r := 0; r < rounds; r++ {
				// Accumulate phase: var v belongs to host (v+r) % hosts.
				for v := 0; v < nVars; v++ {
					if (v+r)%hosts == th.Host() {
						th.WriteU32(vas[v], th.ReadU32(vas[v])+uint32(r+1))
					}
				}
				th.Barrier()
				// Read phase: every host scans the whole table.
				for v := 0; v < nVars; v++ {
					_ = th.ReadU32(vas[v])
				}
				th.Barrier()
			}
			if th.Host() == 0 {
				for v := range vas {
					out.vals[v] = th.ReadU32(vas[v])
				}
			}
		})
		for i := 0; i < hosts; i++ {
			out.rf[i] = s.Host(i).AS.ReadFaults
			out.wf[i] = s.Host(i).AS.WriteFaults
			out.shardRq[i] = s.Host(i).Stats.ReadReqs + s.Host(i).Stats.WriteReqs
		}
		out.invs = s.ManagerStatsTotal().Invalidations
		return out
	}

	central, homed := run(HomeCentral), run(HomeMod)

	// Application results are identical.
	want := func(v int) uint32 { return uint32(v) + rounds*(rounds+1)/2 }
	for v := 0; v < nVars; v++ {
		if central.vals[v] != want(v) {
			t.Fatalf("central: var %d = %d, want %d", v, central.vals[v], want(v))
		}
		if homed.vals[v] != central.vals[v] {
			t.Fatalf("var %d: central=%d home-based=%d", v, central.vals[v], homed.vals[v])
		}
	}
	if central.rf != homed.rf {
		t.Fatalf("read faults differ:\ncentral    %v\nhome-based %v", central.rf, homed.rf)
	}
	if central.wf != homed.wf {
		t.Fatalf("write faults differ:\ncentral    %v\nhome-based %v", central.wf, homed.wf)
	}
	if central.invs != homed.invs {
		t.Fatalf("invalidations differ: central=%d home-based=%d", central.invs, homed.invs)
	}

	// Load placement is what changed: central funnels every directory
	// request through host 0; home-based spreads them over all shards
	// (32 minipages mod 8 hosts touch every home).
	for i := 1; i < hosts; i++ {
		if central.shardRq[i] != 0 {
			t.Fatalf("central: shard %d served %d requests, want 0", i, central.shardRq[i])
		}
	}
	for i := 0; i < hosts; i++ {
		if homed.shardRq[i] == 0 {
			t.Fatalf("home-based: shard %d served no requests", i)
		}
	}
}

// TestHomeBasedShardInvariants runs randomized DRF programs under
// home-based management and then audits the sharded directory: every
// entry lives exactly at its minipage's home, is quiesced, and its
// copyset agrees with the per-host view protections.
func TestHomeBasedShardInvariants(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, hosts := range []int{3, 8} {
			seed, hosts := seed, hosts
			t.Run(fmt.Sprintf("seed=%d/hosts=%d", seed, hosts), func(t *testing.T) {
				runShardInvariantProgram(t, seed, hosts)
			})
		}
	}
}

func runShardInvariantProgram(t *testing.T, seed int64, hosts int) {
	t.Helper()
	prg := rand.New(rand.NewSource(seed * 31))
	nVars := prg.Intn(20) + 6
	rounds := prg.Intn(3) + 2
	sizes := make([]int, nVars)
	for v := range sizes {
		sizes[v] = (prg.Intn(48) + 1) * 4
	}
	readSet := make([][][]int, rounds)
	for r := range readSet {
		readSet[r] = make([][]int, hosts)
		for h := range readSet[r] {
			n := prg.Intn(nVars)
			for i := 0; i < n; i++ {
				readSet[r][h] = append(readSet[r][h], prg.Intn(nVars))
			}
		}
	}
	val := func(v, r int) uint32 { return uint32(v*999983 + r*10007 + 7) }

	s := newSys(t, New, Options{Hosts: hosts, SharedSize: 1 << 20, Views: 16, Seed: seed, HomeOf: HomeMod})
	vas := make([]uint64, nVars)
	var finalErr error
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			for v := range vas {
				vas[v] = th.Malloc(sizes[v])
			}
		}
		th.Barrier()
		for r := 0; r < rounds; r++ {
			for v := 0; v < nVars; v++ {
				if (v+r)%th.NumThreads() == th.ID {
					th.WriteU32(vas[v], val(v, r))
				}
			}
			for _, v := range readSet[r][th.Host()] {
				_ = th.ReadU32(vas[v])
			}
			th.Compute(sim.Duration(th.ID) * 20 * sim.Microsecond)
			th.Barrier()
		}
		if th.ID == 0 {
			defer th.Compute(10 * sim.Millisecond) // let the last acks drain
			for v := 0; v < nVars; v++ {
				if got, want := th.ReadU32(vas[v]), val(v, rounds-1); got != want {
					finalErr = fmt.Errorf("var %d = %d, want %d", v, got, want)
					return
				}
			}
		}
	})
	if finalErr != nil {
		t.Fatal(finalErr)
	}

	mpt := s.MPT()
	for id := 0; id < mpt.NumMinipages(); id++ {
		home := s.HomeOf(id)
		// Placement: the entry exists at the home shard and nowhere else.
		for h := 0; h < hosts; h++ {
			e := s.Host(h).entryOrNil(id)
			if (h == home) != (e != nil) {
				t.Fatalf("minipage %d: entry presence at host %d = %v, home is %d",
					id, h, e != nil, home)
			}
		}
		e := s.Host(home).entry(id)
		if e.Busy() || queued(e) != 0 {
			t.Fatalf("minipage %d not quiesced at home %d", id, home)
		}
		mp, _ := mpt.ByID(id)
		info := mp.Info(s.Layout)
		// Copyset agrees with view protections on every host.
		cs, _ := s.Copyset(id)
		for h := 0; h < hosts; h++ {
			prot, perr := s.Host(h).Region.ProtOf(info.Base)
			if perr != nil {
				t.Fatal(perr)
			}
			inSet := slices.Contains(cs, h)
			readable := prot >= vm.ReadOnly
			if inSet != readable {
				t.Fatalf("minipage %d host %d: copyset bit %v but protection %v", id, h, inSet, prot)
			}
		}
		checkSWMR(t, s, info)
	}
}

func TestHomeBasedPushAndChunking(t *testing.T) {
	// Push and chunked allocation both work against remote homes.
	s := newSys(t, New, Options{Hosts: 4, SharedSize: 1 << 20, Views: 6, ChunkLevel: 4, HomeOf: HomeMod})
	var va uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 1 {
			va = th.Malloc(128) // remote malloc; chunked minipage
			th.WriteU32(va, 41)
			th.WriteU32(va, 42)
			th.Push(va)
		}
		th.Barrier()
		th.Compute(20 * sim.Millisecond)
		th.Barrier()
		if got := th.ReadU32(va); got != 42 {
			t.Errorf("host %d read %d", th.Host(), got)
		}
	})
	for i := 0; i < 4; i++ {
		if i == 1 {
			continue
		}
		if rf := s.Host(i).AS.ReadFaults; rf != 0 {
			t.Fatalf("host %d read faults = %d, want 0 (push should predeliver)", i, rf)
		}
	}
}

// TestSCHomeFollowsStableWriter: minipage 1 is homed at host 1 (host 0
// under the central placement). Host 2 alone write-faults on it in two
// epochs, and host 3 reads it after each, so host 2's copy is downgraded
// before each write; the second write's barrier moves the home to host 2
// on every host. Host 2's third write is an upgrade its own directory
// serves: its request never reaches the wire, and the only message it
// sends is host 3's invalidation. Host 3's next read is one request to
// host 2, whose copy sources the reply and the bytes; the old home serves
// nothing, and host 1, not the coordinator, receives nothing.
func TestSCHomeFollowsStableWriter(t *testing.T) {
	for _, pl := range []struct {
		name   string
		homeOf func(id, hosts int) int
		old    int
	}{{"home-mod", HomeMod, 1}, {"central", HomeCentral, 0}} {
		t.Run(pl.name, func(t *testing.T) {
			s := newSys(t, New, Options{Hosts: 4, SharedSize: 1 << 16, Views: 4, HomeOf: pl.homeOf})
			var va [2]uint64
			var got [3]uint32
			var mover, old, reader [2]fastmsg.Stats
			var moverReqs [2]uint64
			var oldDir [2]ManagerStats
			run(t, s, func(th *Thread) {
				if th.Host() == 0 {
					va[0], va[1] = th.Malloc(64), th.Malloc(64)
				}
				th.Barrier()
				for epoch := 1; epoch <= 3; epoch++ {
					if th.Host() == 2 {
						if epoch == 3 {
							mover[0], moverReqs[0] = s.Host(2).EP.Stats(), s.Host(2).Stats.WriteReqs
						}
						th.WriteU32(va[1], uint32(epoch))
						if epoch == 3 {
							mover[1], moverReqs[1] = s.Host(2).EP.Stats(), s.Host(2).Stats.WriteReqs
						}
					}
					th.Barrier()
					if th.Host() == 3 {
						if epoch == 3 {
							reader[0], old[0], oldDir[0] = s.Host(3).EP.Stats(), s.Host(pl.old).EP.Stats(), s.Host(pl.old).Stats
						}
						got[epoch-1] = th.ReadU32(va[1])
						if epoch == 3 {
							th.Compute(sim.Millisecond) // the ack lands
							reader[1], old[1], oldDir[1] = s.Host(3).EP.Stats(), s.Host(pl.old).EP.Stats(), s.Host(pl.old).Stats
						}
					}
					th.Barrier()
				}
			})
			if s.HomeOf(1) != pl.old {
				t.Fatalf("minipage 1 starts at host %d, the test wants host %d", s.HomeOf(1), pl.old)
			}
			if got != [3]uint32{1, 2, 3} {
				t.Errorf("host 3 read %v, want [1 2 3]", got)
			}
			for i := 0; i < 4; i++ {
				if home := s.Host(i).homeOf(1); home != 2 {
					t.Errorf("host %d homes minipage 1 at host %d, want the writer, 2", i, home)
				}
			}
			if st := s.MWStats(); st.Migrations != 1 {
				t.Errorf("%d migrations, want 1", st.Migrations)
			}
			if sent, looped, served := mover[1].Sent-mover[0].Sent, mover[1].Looped-mover[0].Looped, moverReqs[1]-moverReqs[0]; sent != 1 || looped == 0 || served != 1 {
				t.Errorf("over its third write host 2 sent %d on the wire and %d to itself, serving %d write requests; want 1 (the invalidation), some and 1", sent, looped, served)
			}
			if sent, recv := reader[1].Sent-reader[0].Sent, reader[1].Received-reader[0].Received; sent != 2 || recv != 2 {
				t.Errorf("over its read host 3 sent %d and received %d, want 2 (request and ack) and 2 (reply and bytes)", sent, recv)
			}
			if oldDir[1] != oldDir[0] {
				t.Errorf("the old home's directory served over the read: %+v, then %+v", oldDir[0], oldDir[1])
			}
			if recv := old[1].Received - old[0].Received; pl.old != 0 && recv != 0 {
				t.Errorf("the old home received %d messages over the read, want 0", recv)
			}
		})
	}
}

// TestSCRotatingWriterKeepsHome: a minipage's only writer changes every
// epoch, hosts 2 and 3 taking turns under a lock, so no writer is the sole
// one of two writing epochs in a row and the home never moves. Every read
// sees the last epoch's value.
func TestSCRotatingWriterKeepsHome(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 4, SharedSize: 1 << 16, Views: 4})
	var va [2]uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			va[0], va[1] = th.Malloc(64), th.Malloc(64)
		}
		th.Barrier()
		for epoch := uint32(1); epoch <= 8; epoch++ {
			if th.Host() == 2+int(epoch%2) {
				th.Lock(0)
				th.WriteU32(va[1], epoch)
				th.Unlock(0)
			}
			th.Barrier()
			if got := th.ReadU32(va[1]); got != epoch {
				t.Errorf("host %d read %d after epoch %d", th.Host(), got, epoch)
			}
			th.Barrier()
		}
	})
	if st := s.MWStats(); st.Migrations != 0 {
		t.Errorf("%d migrations, want none", st.Migrations)
	}
	for i := 0; i < 4; i++ {
		if home := s.Host(i).homeOf(1); home != 1 {
			t.Errorf("host %d homes minipage 1 at host %d, want HomeOf's 1", i, home)
		}
	}
}

// TestSCMoveWithAckInFlight holds a reader's ack to an SC home across the
// barrier that moves the home: a request to the new home waits for that
// home's release, then for the forwarded ack. Host 2 writes minipage 1,
// homed at host 1, alone in two epochs, and in the second host 3 reads it
// after the write.
// A partition cuts host 3 from host 1 after the read's request is in and
// before its ack leaves, until heal1, so the read's transaction is still
// open at host 1 as the barrier moves the entry to host 2. A second
// partition holds host 2's release from host 0 until heal2. Host 3's
// write right after the barrier goes to the new home, which has not been
// released yet, and waits there; released, host 2 queues it behind the open
// read. Once the first partition heals, the old home forwards the ack to
// host 2, which closes the read and serves the write. The old home serves
// nothing after the move and sends nothing but the ack.
// The ack heals after host 2's release, or before it: then the old home,
// released, forwards it to a new home that is not, and stamps it with its
// own epoch, so host 2 holds it for its release beside the write instead
// of taking it for a request misdelivered in the epoch it is still in.
func TestSCMoveWithAckInFlight(t *testing.T) {
	for _, order := range []struct {
		name         string
		heal1, heal2 sim.Time
	}{{"ack-after-release", sim.Time(25 * sim.Millisecond), sim.Time(15 * sim.Millisecond)},
		{"ack-before-release", sim.Time(15 * sim.Millisecond), sim.Time(25 * sim.Millisecond)}} {
		t.Run(order.name, func(t *testing.T) { testSCMoveWithAckInFlight(t, order.heal1, order.heal2) })
	}
}

func testSCMoveWithAckInFlight(t *testing.T, heal1, heal2 sim.Time) {
	read := sim.Time(10 * sim.Millisecond)
	cut := read + 120*sim.Time(sim.Microsecond)
	s := newSys(t, New, Options{Hosts: 4, SharedSize: 1 << 16, Views: 4, Faults: &faultnet.Plan{Partitions: []faultnet.Partition{
		{A: 1 << 3, B: 1 << 1, From: cut, Until: heal1}, {A: 1 << 0, B: 1 << 2, From: cut, Until: heal2}}}})
	var va [2]uint64
	var got [4]uint32
	var readDone, released sim.Time
	var wrote [2]sim.Time
	var oldHome [2]ManagerStats
	var oldSent [2]uint64
	var competing uint64
	run(t, s, func(th *Thread) {
		h := th.Host()
		if h == 0 {
			va[0], va[1] = th.Malloc(64), th.Malloc(64)
		}
		th.Barrier()
		if h == 2 {
			th.WriteU32(va[1], 1)
		}
		th.Barrier()
		if h == 3 {
			th.ReadU32(va[1]) // host 2's next write is an upgrade
		}
		th.Barrier()
		switch h {
		case 2:
			th.WriteU32(va[1], 2)
		case 3:
			th.Compute(read.Sub(th.Now()))
			th.ReadU32(va[1])
			readDone = th.Now()
		}
		th.Barrier()
		switch h {
		case 1:
			oldHome[0], oldSent[0] = s.Host(1).Stats, s.Host(1).EP.Stats().Sent
			th.Compute(heal1.Sub(th.Now()) + 20*sim.Millisecond)
			oldHome[1], oldSent[1] = s.Host(1).Stats, s.Host(1).EP.Stats().Sent
		case 2:
			released = th.Now()
		case 3:
			wrote[0] = th.Now()
			th.WriteU32(va[1], 3)
			wrote[1], competing = th.Now(), s.Host(2).Stats.CompetingRequests
		}
		th.Barrier()
		got[h] = th.ReadU32(va[1])
	})
	if readDone < cut || readDone > cut+sim.Time(100*sim.Microsecond) {
		t.Fatalf("host 3's read ends at %v, want just after the cut at %v: the ack must leave inside the partition", readDone, cut)
	}
	if got != [4]uint32{3, 3, 3, 3} {
		t.Errorf("hosts read %v, want 3 everywhere", got)
	}
	if st := s.MWStats(); st.Migrations != 1 || s.Host(3).homeOf(1) != 2 {
		t.Fatalf("%d migrations, minipage 1 homed at host %d; want 1, at host 2", st.Migrations, s.Host(3).homeOf(1))
	}
	if wrote[0]+sim.Time(sim.Millisecond) > released || released < heal2 {
		t.Errorf("host 3 wrote at %v and host 2 was released at %v: want the write sent well before the release, held past %v", wrote[0], released, heal2)
	}
	if wrote[1] < heal1 {
		t.Errorf("host 3's write completed at %v, before the ack it queued behind was let through at %v", wrote[1], heal1)
	}
	if competing != 1 {
		t.Errorf("the new home counted %d competing requests, want 1: the write behind the open read", competing)
	}
	if oldHome[1] != oldHome[0] {
		t.Errorf("the old home's directory served after the move: %+v, then %+v", oldHome[0], oldHome[1])
	}
	if sent := oldSent[1] - oldSent[0]; sent != 1 {
		t.Errorf("the old home sent %d messages after the move, want 1: the ack it forwards", sent)
	}
}
