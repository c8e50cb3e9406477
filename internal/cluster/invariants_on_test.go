//go:build invariants

package cluster_test

import (
	"strings"
	"testing"

	"millipage/internal/dsm"
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

// TestDeclineLeavesNoMark: under -tags invariants a row that declines
// engine context after an effect — a send posted, a send queued, the
// message in hand recycled — panics, naming what it did: the thread that
// serves the message next would find the state the row left, not the one
// it would have found.
func TestDeclineLeavesNoMark(t *testing.T) {
	var pool dsm.Pool[synMsg]
	for _, tc := range []struct {
		want   string
		effect func(h *dsm.Host, m *synMsg, fm *fastmsg.Message)
	}{
		{"SYN_BAD declined engine context after posting or queueing a send", func(h *dsm.Host, m *synMsg, fm *fastmsg.Message) {
			h.Post(fm.From, &synMsg{run: m.run})
		}},
		{"SYN_BAD declined engine context after posting or queueing a send", func(h *dsm.Host, m *synMsg, fm *fastmsg.Message) {
			h.Send(nil, fm.From, &synMsg{run: m.run})
		}},
		{"decline of a recycled header", func(_ *dsm.Host, m *synMsg, _ *fastmsg.Message) { pool.Put(m) }},
	} {
		bad := &synState{tab: dsm.Register(synTable{Describe: synDescribe, Rows: []dsm.MsgSpec[*synMsg]{
			{Name: "SYN_BAD", Engine: true, Handle: func(h *dsm.Host, p *sim.Proc, m *synMsg, fm *fastmsg.Message) *fastmsg.Message {
				if p == nil {
					tc.effect(h, m, fm)
					return fastmsg.Decline
				}
				return nil
			}},
		}})}
		s := newSys(t, dsm.Options{Hosts: 2, SharedSize: vm.PageSize})
		mustPanic(t, tc.want, func() {
			s.Run(func(th *dsm.Thread) {
				if th.ID == 0 { // host 1 is idle: it serves the message at once
					th.Send(1, &synMsg{run: bad})
					th.Compute(sim.Millisecond)
				}
			})
		})
	}
}
