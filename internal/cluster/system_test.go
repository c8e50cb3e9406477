package cluster

import (
	"strings"
	"testing"

	"millipage/internal/sim"
	"millipage/internal/vm"
)

// stubHost is a protocol host with no protocol: it maps one NoAccess page
// and, on a fault, records the handler context and opens the page.
type stubHost struct {
	*Host
	faultCtx []any
}

func (h *stubHost) HandleFault(ctx any, f vm.Fault) error {
	h.faultCtx = append(h.faultCtx, ctx)
	return h.AS.Protect(stubBase, 1, vm.ReadWrite)
}
func (h *stubHost) Alloc(p *sim.Proc, from, size int, local bool) (Allocation, error) {
	return Allocation{VA: stubBase}, nil
}
func (h *stubHost) Mapped(p *sim.Proc, a Allocation) {}

// stubThread is the matching thread wrapper: an AppThread by embedding.
type stubThread struct {
	*Thread
	host *stubHost
}

const stubBase = uint64(0x10000)

type stubSystem struct {
	Lifecycle[*stubHost, *stubThread]
}

func newStubSystem(t *testing.T, opt Options) *stubSystem {
	t.Helper()
	s := &stubSystem{}
	err := s.Init("stub", opt, Traits{MultiThreaded: true},
		func(ct *Thread, h *stubHost) *stubThread { return &stubThread{Thread: ct, host: h} })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Opt.Hosts; i++ {
		as := vm.NewAddressSpace()
		if err := as.MapView(stubBase, vm.NewMemObject(vm.PageSize), 0, 1, vm.NoAccess); err != nil {
			t.Fatal(err)
		}
		h := &stubHost{}
		h.Host = s.AddHost(as, h, nil)
	}
	return s
}

// TestLifecycle covers the base every protocol's System embeds: the
// accessors, wrapper creation (the body and HandleFault both receive the
// wrapper made for that thread), the fault frame (the kernel charges the
// trap and books the fault, whatever the protocol does inside) and the
// single run-twice guard.
func TestLifecycle(t *testing.T) {
	s := newStubSystem(t, Options{Hosts: 2, ThreadsPerHost: 2, SharedSize: vm.PageSize})
	if s.NumHosts() != 2 || s.Runtime().NumHosts() != 2 || s.Eng != s.Runtime().Eng || s.Net != s.Runtime().Net {
		t.Fatalf("accessors disagree with the runtime: %d hosts", s.NumHosts())
	}
	if s.Opt.Seed != 1 || s.Opt.Views != 1 {
		t.Fatalf("Opt not defaulted: %+v", s.Opt)
	}
	for i := 0; i < 2; i++ {
		if s.Host(i).ID() != i || s.Host(i).Host != s.Runtime().Host(i) {
			t.Fatalf("Host(%d) is not the host attached %dth", i, i)
		}
	}

	var bodies []AppThread
	err := s.Run(func(w AppThread) {
		bodies = append(bodies, w)
		if w.ThreadID() == 3 {
			w.WriteU32(stubBase, 7) // faults once on host 1
		}
		w.Compute(sim.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	ths, trap := s.Threads(), s.Opt.Costs.AccessFault
	if len(ths) != 4 || len(bodies) != 4 || s.Elapsed() != sim.Millisecond+trap {
		t.Fatalf("threads = %d, bodies = %d, elapsed = %v", len(ths), len(bodies), s.Elapsed())
	}
	if st := ths[3].Stats; st.WriteFaults != 1 || st.WriteFaultTime != trap || st.ReadFaults != 0 || st.WriteFaultHist.Count() != 1 {
		t.Fatalf("thread 3's fault booked as %d write faults over %v, %d read faults", st.WriteFaults, st.WriteFaultTime, st.ReadFaults)
	}
	for i, th := range ths {
		if th.Thread != s.Runtime().Threads()[i] || th.host != s.Host(th.Host()) {
			t.Fatalf("wrapper %d does not wrap substrate thread %d on its own host", i, i)
		}
		if bodies[i] != AppThread(th) {
			t.Fatalf("body %d ran with %v, not the wrapper installed for the thread", i, bodies[i])
		}
	}
	if got := s.Host(1).faultCtx; len(got) != 1 || got[0] != any(ths[3]) {
		t.Fatalf("HandleFault context = %v, want exactly thread 3's wrapper", got)
	}
	if len(s.Host(0).faultCtx) != 0 {
		t.Fatal("host 0 took a fault nobody made")
	}

	if err := s.Run(func(AppThread) {}); err == nil || !strings.Contains(err.Error(), "Run called twice") {
		t.Fatalf("second Run = %v, want the run-twice error", err)
	}
	if err := newStubSystem(t, Options{Hosts: 1, SharedSize: vm.PageSize}).Run(nil); err == nil ||
		!strings.Contains(err.Error(), "stub: nil thread body") {
		t.Fatalf("Run(nil) = %v, want the nil-body error", err)
	}
}
