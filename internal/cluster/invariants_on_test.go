//go:build invariants

package cluster

import (
	"strings"
	"testing"

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
		if c != poison {
			t.Fatalf("byte %d of a recycled buffer is %#x, want the %#x poison", i, c, poison)
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

// TestDeclineLeavesNoMark: under -tags invariants a row that declines
// engine context after an effect — a send posted, a send queued, the
// message in hand recycled — panics, naming what it did: the thread that
// serves the message next would find the state the row left, not the one
// it would have found.
func TestDeclineLeavesNoMark(t *testing.T) {
	var pool Pool[synMsg]
	for _, tc := range []struct {
		want   string
		effect func(h *synHost, m *synMsg, fm *fastmsg.Message)
	}{
		{"SYN_BAD declined engine context after posting or queueing a send", func(h *synHost, m *synMsg, fm *fastmsg.Message) {
			h.Post(fm.From, &synMsg{tab: m.tab})
		}},
		{"SYN_BAD declined engine context after posting or queueing a send", func(h *synHost, m *synMsg, fm *fastmsg.Message) {
			h.Send(nil, fm.From, &synMsg{tab: m.tab})
		}},
		{"decline of a recycled header", func(_ *synHost, m *synMsg, _ *fastmsg.Message) { pool.Put(m) }},
	} {
		bad := Register(synTable{Describe: synDescribe, Rows: []MsgSpec[*synHost, *synMsg]{
			{Name: "SYN_BAD", Engine: true, Handle: func(h *synHost, p *sim.Proc, m *synMsg, fm *fastmsg.Message) *fastmsg.Message {
				if p == nil {
					tc.effect(h, m, fm)
					return fastmsg.Decline
				}
				return nil
			}},
		}})
		rt, err := New("syn", Options{Hosts: 2, SharedSize: vm.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		hs := []*synHost{{tab: bad}, {tab: bad}}
		for _, h := range hs {
			h.Host = rt.NewHost(vm.NewAddressSpace(), h, nil)
		}
		mustPanic(t, tc.want, func() {
			rt.Run(func(ct *Thread) func() {
				return func() {
					if ct.ID == 0 { // host 1 is idle: it serves the message at once
						hs[0].Send(ct.p, 1, &synMsg{tab: bad})
						ct.Compute(sim.Millisecond)
					}
				}
			})
		})
	}
}
