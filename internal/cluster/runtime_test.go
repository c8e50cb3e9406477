package cluster

import (
	"strings"
	"testing"

	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
	"millipage/internal/trace"
	"millipage/internal/vm"
)

// nopHandler is the minimal protocol: no faults, no messages.
type nopHandler struct{}

func (nopHandler) HandleFault(ctx any, f vm.Fault) error          { return nil }
func (nopHandler) HandleMessage(p *sim.Proc, fm *fastmsg.Message) {}
func (nopHandler) DescribeMsg(payload any) (uint16, int, uint64, int) {
	return 0, -1, 0, -1
}

func newTestRuntime(hosts, threadsPerHost int) *Runtime {
	rt, err := New(Config{Name: "test", Hosts: hosts, ThreadsPerHost: threadsPerHost})
	if err != nil {
		panic(err)
	}
	for i := 0; i < hosts; i++ {
		rt.NewHost(vm.NewAddressSpace(), nopHandler{})
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

func TestConfigDefaults(t *testing.T) {
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.Cfg
	if cfg.Name != "cluster" || cfg.Hosts != 1 || cfg.ThreadsPerHost != 1 || cfg.Seed != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.Costs == (Costs{}) || cfg.Net == (fastmsg.Params{}) {
		t.Fatal("zero cost/net tables not defaulted")
	}
}

// TestNewRejectsUnrunnableConfigs: a combination of fields the runtime
// cannot run is a validation error naming every field involved — never a
// panic out of the constructor.
func TestNewRejectsUnrunnableConfigs(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		fields []string
	}{
		{"par with Faults", Config{Hosts: 2, Engine: EnginePar,
			Faults: &faultnet.Plan{Drop: 0.01}}, []string{"Engine", "Faults"}},
		{"par with Trace", Config{Hosts: 2, Engine: EnginePar,
			Trace: trace.NewRecorder(16)}, []string{"Engine", "Trace"}},
		{"unknown engine", Config{Hosts: 2, Engine: "warp"}, []string{"Engine", "warp"}},
		{"invalid fault plan", Config{Hosts: 2,
			Faults: &faultnet.Plan{Drop: 2}}, []string{"Drop"}},
	}
	for _, tc := range cases {
		rt, err := New(tc.cfg)
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
}
