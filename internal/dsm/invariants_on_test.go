//go:build invariants

package dsm

import (
	"strings"
	"testing"

	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), want) {
			t.Fatalf("got panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}

type poolRec struct {
	PoolState
	v int
}

// TestPoolInvariants: under -tags invariants the freelists catch each
// way a pooled header's single-owner rule can be broken.
func TestPoolInvariants(t *testing.T) {
	var pl Pool[poolRec]
	m := pl.Get()
	m.CheckLive("fresh")
	pl.Put(m)
	mustPanic(t, "Send of a recycled header", func() { m.CheckLive("Send") })
	mustPanic(t, "recycled twice", func() { pl.Put(m) })
	if got := pl.Get(); got != m {
		t.Fatal("pool did not hand the record back")
	}
	m.CheckLive("reused")
	pl.Put(m)
	*m = poolRec{v: 1} // a whole-struct write through a stale pointer
	mustPanic(t, "written after it was recycled", func() { pl.Get() })
}

func TestSlicePoolInvariants(t *testing.T) {
	var sp SlicePool[byte]
	b := make([]byte, 32, 64)
	sp.Put(b)
	for i, c := range b[:cap(b)] {
		if c != poisonByte {
			t.Fatalf("byte %d of a recycled buffer is %#x, want the %#x poison", i, c, poisonByte)
		}
	}
	mustPanic(t, "buffer recycled twice", func() { sp.Put(b[:8]) })
	b[:cap(b)][40] = 1 // a write through a stale slice
	mustPanic(t, "written after it was recycled", func() { sp.Get(16) })

	var ints SlicePool[int] // ids are poisoned negative: no stale reader finds a minipage
	s := make([]int, 4)
	ints.Put(s)
	if s[3] >= 0 {
		t.Fatalf("a recycled id list holds %d, want a negative poison", s[3])
	}
	mustPanic(t, "buffer recycled twice", func() { ints.Put(s) })
	s[1] = 7
	mustPanic(t, "written after it was recycled", func() { ints.Get(2) })
}

// TestProtectChecksSWMR: under -tags invariants, SC's protect panics once a
// minipage is writable at one host beside a copy at another, whichever
// host's protection change makes it so.
func TestProtectChecksSWMR(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16, Views: 4})
	var info core.Info
	run(t, s, func(th *Thread) {
		if th.Host() == 0 { // the allocating host maps its minipage writable
			_, info, _ = th.host.route(th.Malloc(64))
		}
	})
	mustPanic(t, "host 0 holds minipage 0 writable beside 1 other copies", func() { s.Host(1).protect(info, vm.ReadOnly) })
}

// declMsg is TestDeclineAfterDataPanics' header: one row, by its table.
type declMsg struct {
	PoolState
	tab Table
}

func (m *declMsg) Table() (Table, int) { return m.tab, 0 }

// TestDeclineAfterDataPanics: under -tags invariants a row that posts a
// minipage's bytes in engine context and then declines it panics, as one
// that posts a header does (cluster's TestDeclineLeavesNoMark): the thread
// that serves the message next would post them again.
func TestDeclineAfterDataPanics(t *testing.T) {
	tab := Register(MsgTable[*declMsg]{Describe: func(*Host, *declMsg) (int, uint64, int) { return -1, 0, -1 }, Rows: []MsgSpec[*declMsg]{
		{Name: "DECL_DATA", Engine: true, Handle: func(h *Host, p *sim.Proc, _ *declMsg, fm *fastmsg.Message) *fastmsg.Message {
			if p == nil {
				h.postData(fm.From, make([]byte, 8), dataMarker)
				return fastmsg.Decline
			}
			return nil
		}},
	}})
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16})
	mustPanic(t, "DECL_DATA declined engine context after posting or queueing a send", func() {
		s.Run(func(th *Thread) {
			if th.ID == 0 { // host 1 is idle: it serves the message at once
				th.Send(1, &declMsg{tab: tab})
				th.Compute(sim.Millisecond)
			}
		})
	})
}
