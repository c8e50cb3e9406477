package dsm

import (
	"slices"
	"testing"

	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// spyRows wraps the handlers of the given rows for the rest of the test:
// check runs before and after each message is handled, with the type and
// translation the header arrived with (a DATA message's, its parked reply
// header's) and the host it came from.
func spyRows(t *testing.T, check func(h *Host, typ mtype, info core.Info, from int, done bool), types ...mtype) {
	for _, typ := range types {
		row := &rows[typ]
		orig := row.Handle
		t.Cleanup(func() { row.Handle = orig })
		row.Handle = func(h *Host, p *sim.Proc, m *Msg, fm *fastmsg.Message) *fastmsg.Message {
			kind, info, from := typ, m.Info, m.From
			if typ == mData {
				hdr := h.peek(fm)
				kind, info = hdr.Type, hdr.Info
			}
			check(h, kind, info, from, false)
			tail := orig(h, p, m, fm)
			if tail != fastmsg.Decline {
				check(h, kind, info, from, true)
			}
			return tail
		}
	}
}

// TestWriteWaitsForEveryInvalidation: a write miss and an upgrade each
// invalidate seven readers, whose replies go to the writer. On a clean
// wire and with the wire reordering frames, so that replies land both
// before and after the data or the grant, the writer's copy turns
// ReadWrite only with the last of them, its thread resumes only after
// it, and the home entry stays busy until the writer's ack.
func TestWriteWaitsForEveryInvalidation(t *testing.T) {
	const hosts, readers = 9, 7
	var early, late int // replies handled before and after their write's bytes or grant
	for _, tc := range []struct {
		name string
		plan *faultnet.Plan
	}{
		{"clean", nil},
		{"reorder-heavy", &faultnet.Plan{Seed: 3, Drop: 0.05, Reorder: 0.6, Jitter: 3 * sim.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSys(t, New, Options{Hosts: hosts, SharedSize: 1 << 16, Views: 2, Seed: 5, Faults: tc.plan})
			var va uint64
			writer, replies, bytesIn, acked := -1, 0, false, false
			spyRows(t, func(h *Host, typ mtype, info core.Info, from int, done bool) {
				if writer < 0 || info.ID != 0 {
					return
				}
				e := homeEntry(s, 0)
				if typ == mAck && from == writer && !done {
					if !e.busy || replies != readers || !bytesIn {
						t.Errorf("the write's ack reached the home with the entry busy %v, %d replies in, bytes or grant in %v", e.busy, replies, bytesIn)
					}
					acked = true
				}
				if h.ID() != writer || typ == mAck {
					return
				}
				if !e.busy {
					t.Errorf("%v reached writer %d with the home entry idle", typ, writer)
				}
				if done && typ == mInvalidateReply {
					if replies++; bytesIn {
						late++
					} else {
						early++
					}
				}
				if done && (typ == mWriteReply || typ == mUpgradeGrant) {
					bytesIn = true
				}
				prot, _ := h.Region.ProtOf(info.Base)
				if complete := done && replies == readers && bytesIn; complete != (prot == vm.ReadWrite) {
					t.Errorf("writer %d's copy is %v after %v (done %v) with %d of %d replies in, bytes or grant in %v",
						writer, prot, typ, done, replies, readers, bytesIn)
				}
			}, mData, mUpgradeGrant, mInvalidateReply, mAck)

			// write has host w write v, checking it resumed after every reply.
			write := func(th *Thread, w int, v uint32) {
				if th.Host() == w {
					writer, replies, bytesIn, acked = w, 0, false, false
					th.WriteU32(va, v)
					if replies != readers || !bytesIn {
						t.Errorf("writer %d resumed with %d of %d replies in, bytes or grant in %v", w, replies, readers, bytesIn)
					}
				}
				th.Barrier()
				if th.Host() == w {
					if !acked {
						t.Errorf("writer %d's ack never reached the home", w)
					}
					writer = -1
				}
			}
			read := func(th *Thread, lo, hi int, want uint32) {
				if h := th.Host(); h >= lo && h <= hi {
					if got := th.ReadU32(va); got != want {
						t.Errorf("host %d read %d, want %d", h, got, want)
					}
				}
				th.Barrier()
			}
			run(t, s, func(th *Thread) {
				if th.Host() == 0 {
					va = th.Malloc(128)
					th.WriteU32(va, 1)
				}
				th.Barrier()
				read(th, 1, readers, 1) // copyset: hosts 0-7, owner 0
				write(th, 8, 2)         // a miss: host 0 ships the bytes, hosts 1-7 are invalidated
				read(th, 0, readers-1, 2)
				write(th, 3, 3) // an upgrade: hosts 0-2, 4-6 and 8 are invalidated
				read(th, 0, hosts-1, 3)
			})
		})
	}
	if early == 0 || late == 0 {
		t.Errorf("%d replies came before their write's bytes or grant and %d after: the test needs both", early, late)
	}
}

// TestCopysetPastOneWord: at 130 hosts a copyset spans three words of host
// bits, and minipage 1's starts mid-word. Hosts 0, 63, 64 and 129 (either
// side of both word boundaries) read it, then host 129 writes it: the home
// invalidates exactly the three other readers, and the copyset collapses
// to the writer.
func TestCopysetPastOneWord(t *testing.T) {
	const hosts, writer = 130, 129
	readers := []int{0, 63, 64, writer}
	s := newSys(t, New, Options{Hosts: hosts, SharedSize: 1 << 16, Views: 2})
	var va uint64
	var before []int
	var invalsBefore uint64
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			th.Malloc(64) // minipage 0, whose copyset starts on a word
			va = th.Malloc(64)
			th.WriteU32(va, 7)
		}
		th.Barrier()
		if slices.Contains(readers, th.Host()) && th.ReadU32(va) != 7 {
			t.Errorf("host %d read a stale value", th.Host())
		}
		th.Barrier()
		if th.Host() == writer {
			before, _ = copysetOf(s, 1)
			invalsBefore = s.ManagerStatsTotal().Invalidations
			th.WriteU32(va, 8)
		}
		th.Barrier()
	})
	if !slices.Equal(before, readers) {
		t.Errorf("copyset before the write %v, want %v", before, readers)
	}
	if n := s.ManagerStatsTotal().Invalidations - invalsBefore; n != 3 {
		t.Errorf("the write sent %d invalidations, want 3", n)
	}
	if cs, owner := copysetOf(s, 1); !slices.Equal(cs, []int{writer}) || owner != writer {
		t.Errorf("copyset %v owner %d after the write, want host %d alone", cs, owner, writer)
	}
	for _, h := range readers[:3] {
		if prot, _ := s.Host(h).Region.ProtOf(va); prot != vm.NoAccess {
			t.Errorf("host %d keeps a %v copy after the write", h, prot)
		}
	}
}
