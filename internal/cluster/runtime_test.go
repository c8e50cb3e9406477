package cluster

import (
	"slices"
	"strings"
	"testing"

	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// nopHandler is the minimal protocol: no faults, and one message, nopMsg,
// which it drops.
type nopHandler struct{}

func (nopHandler) HandleFault(ctx any, f vm.Fault) error { return nil }
func (nopHandler) Alloc(p *sim.Proc, from, size int, local bool) (Allocation, error) {
	return Allocation{}, nil
}
func (nopHandler) Mapped(p *sim.Proc, a Allocation) {}

type nopMsg struct{ PoolState }

var nopTable = Register(MsgTable[nopHandler, *nopMsg]{
	Describe: func(nopHandler, *nopMsg) (int, uint64, int) { return -1, 0, -1 },
	Rows: []MsgSpec[nopHandler, *nopMsg]{{Name: "NOP", Handle: func(nopHandler, *sim.Proc, *nopMsg, *fastmsg.Message) *fastmsg.Message {
		return nil
	}}},
})

func (*nopMsg) Table() (Table, int) { return nopTable, 0 }

func newTestRuntime(hosts, threadsPerHost int) *Runtime {
	rt, err := New("test", Options{Hosts: hosts, ThreadsPerHost: threadsPerHost, SharedSize: vm.PageSize})
	if err != nil {
		panic(err)
	}
	for i := 0; i < hosts; i++ {
		rt.NewHost(vm.NewAddressSpace(), nopHandler{}, nil)
	}
	return rt
}

func TestRunThreadLifecycle(t *testing.T) {
	rt := newTestRuntime(2, 2)
	err := rt.Run(func(ct *Thread) func() {
		return func() {
			ct.Compute(sim.Duration(ct.ID+1) * sim.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ths := rt.Threads()
	if len(ths) != 4 || rt.TotalThreads() != 4 {
		t.Fatalf("threads = %d (total %d), want 4", len(ths), rt.TotalThreads())
	}
	// Global ids in spawn order, local ids per host, hosts in id order.
	wantHost := []int{0, 0, 1, 1}
	wantLID := []int{0, 1, 0, 1}
	for i, th := range ths {
		if th.ID != i || th.Host() != wantHost[i] || th.LID != wantLID[i] {
			t.Fatalf("thread %d: ID=%d host=%d LID=%d, want %d/%d/%d",
				i, th.ID, th.Host(), th.LID, i, wantHost[i], wantLID[i])
		}
		want := sim.Duration(i+1) * sim.Millisecond
		if th.Stats.ComputeTime != want || th.Stats.Total() != want {
			t.Fatalf("thread %d: compute=%v total=%v, want %v",
				i, th.Stats.ComputeTime, th.Stats.Total(), want)
		}
	}
	// The run lasts as long as the slowest thread.
	if rt.Elapsed() != 4*sim.Millisecond {
		t.Fatalf("Elapsed = %v, want 4ms", rt.Elapsed())
	}
}

func TestRunGuards(t *testing.T) {
	rt := newTestRuntime(1, 1)
	if err := rt.Run(nil); err == nil || !strings.Contains(err.Error(), "test: nil thread body") {
		t.Fatalf("Run(nil) = %v, want nil-thread-body error", err)
	}
	mk := func(ct *Thread) func() { return func() {} }
	if err := rt.Run(mk); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(mk); err == nil || !strings.Contains(err.Error(), "Run called twice") {
		t.Fatalf("second Run = %v, want run-twice error", err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	rt, err := New("test", Options{Hosts: 1, SharedSize: vm.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	opt := rt.Opt
	if rt.Name != "test" || opt.ThreadsPerHost != 1 || opt.Views != 1 || opt.ChunkLevel != 1 ||
		opt.Seed != 1 || opt.HomeOf == nil {
		t.Fatalf("defaults = %+v", opt)
	}
	if opt.Costs == (Costs{}) || opt.Net == (fastmsg.Params{}) {
		t.Fatal("zero cost/net tables not defaulted")
	}
}

// TestNewRejectsUnrunnableOptions: New is the kernel's validation site. A
// value or combination the protocol cannot run is an error naming every
// field involved — never a panic out of the constructor, never a silent
// degrade.
func TestNewRejectsUnrunnableOptions(t *testing.T) {
	ok := func(mut func(*Options)) Options {
		o := Options{Hosts: 2, SharedSize: vm.PageSize}
		mut(&o)
		return o
	}
	cases := []struct {
		name   string
		opt    Options
		fields []string
	}{
		{"no hosts", ok(func(o *Options) { o.Hosts = 0 }), []string{"Hosts"}},
		{"negative hosts", ok(func(o *Options) { o.Hosts = -1 }), []string{"Hosts"}},
		{"too many hosts", ok(func(o *Options) { o.Hosts = 1025 }), []string{"Hosts"}},
		{"no shared memory", ok(func(o *Options) { o.SharedSize = 0 }), []string{"SharedSize"}},
		{"negative threads", ok(func(o *Options) { o.ThreadsPerHost = -1 }), []string{"ThreadsPerHost"}},
		{"negative chunk level", ok(func(o *Options) { o.ChunkLevel = -1 }), []string{"ChunkLevel"}},
		{"invalid fault plan", ok(func(o *Options) { o.Faults = &faultnet.Plan{Drop: 2} }), []string{"Drop"}},
	}
	for _, tc := range cases {
		rt, err := New("test", tc.opt)
		if err == nil || rt != nil {
			t.Errorf("%s: New = %v, %v; want an error", tc.name, rt, err)
			continue
		}
		for _, f := range tc.fields {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, f)
			}
		}
	}
	if _, err := New("test", ok(func(o *Options) {
		o.ThreadsPerHost, o.Grain, o.HomeOf = 2, core.GrainPage, HomeMod
	})); err != nil {
		t.Errorf("supported options rejected: %v", err)
	}
}

// TestDeadlockNamesWhatThreadsWaitFor: a run whose replies never come
// ends in a deadlock report that says, thread by thread, which operation
// hangs — the wait reason every Block carries — whether the thread was
// blocked by its own first Step (no request, nothing to charge) or, mid-
// sequence, by one the engine ran after the request's send charge.
func TestDeadlockNamesWhatThreadsWaitFor(t *testing.T) {
	rt := newTestRuntime(3, 1)
	set := sim.NewEvent(rt.Eng)
	set.Set()
	err := rt.Run(func(ct *Thread) func() {
		return func() {
			switch ct.ID {
			case 0: // a call nobody answers (nopHandler drops the request)
				ct.Block(Blocking{For: "lock grant", FW: ct.WaitSlot(), To: 1, Request: &nopMsg{}, Wake: sim.Microsecond})
			case 1:
				ct.Block(Blocking{For: "flush done", On: sim.NewEvent(rt.Eng), Pre: sim.Microsecond})
			case 2: // the group's first member is there, the second never comes
				ct.Block(Blocking{For: "prefetch group", Group: []*sim.Event{set, sim.NewEvent(rt.Eng)}})
			}
			t.Errorf("thread %d woke", ct.ID)
		}
	})
	de, ok := err.(*sim.ErrDeadlock)
	if !ok {
		t.Fatalf("Run = %v, want a deadlock", err)
	}
	want := []sim.BlockedProc{
		{Name: "app-0.0", Waiting: "lock grant"},
		{Name: "app-1.0", Waiting: "flush done"},
		{Name: "app-2.0", Waiting: "prefetch group"},
	}
	if !slices.Equal(de.Waits, want) {
		t.Errorf("blocked on %v, want %v", de.Waits, want)
	}
	if got := rt.Net.Endpoint(1).Stats().Received; got != 1 {
		t.Errorf("host 1 received %d requests, want thread 0's", got)
	}
	if rt.Eng.Counters().Hops == 0 {
		t.Error("no Step ran in engine context: nobody was blocked mid-sequence")
	}
}
