package millipage_test

import (
	"strings"
	"testing"

	millipage "millipage"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

func TestNewClusterValidation(t *testing.T) {
	if _, err := millipage.NewCluster(millipage.Config{Hosts: 2}); err == nil {
		t.Fatal("zero SharedMemory accepted")
	}
	cases := []struct {
		hosts int
		ok    bool
	}{
		{-1, false},
		{0, false},
		{1, true},
		{2, true},
		{8, true},
		{64, true},
		{100, true},
		{256, true},
		{1024, true},
		{1025, false},
		{1 << 20, false},
	}
	for _, tc := range cases {
		_, err := millipage.NewCluster(millipage.Config{Hosts: tc.hosts, SharedMemory: 4096})
		if tc.ok && err != nil {
			t.Errorf("Hosts = %d rejected: %v", tc.hosts, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("Hosts = %d accepted", tc.hosts)
			} else if !strings.Contains(err.Error(), "Hosts") {
				t.Errorf("Hosts = %d error %q does not name Config.Hosts", tc.hosts, err)
			}
		}
	}
	// Rejected combinations name every Config field involved.
	rejected := []struct {
		cfg    millipage.Config
		fields []string
	}{
		// A negative count used to build and run zero threads (millipage)
		// or be ignored (the rest): reject it under every protocol.
		{millipage.Config{Hosts: 2, SharedMemory: 1 << 16, ThreadsPerHost: -1}, []string{"ThreadsPerHost"}},
		{millipage.Config{Protocol: "ivy", Hosts: 2, SharedMemory: 1 << 16, ThreadsPerHost: -1}, []string{"ThreadsPerHost"}},
		{millipage.Config{Protocol: "lrc-mw", Hosts: 2, SharedMemory: 1 << 16, ThreadsPerHost: -1}, []string{"ThreadsPerHost"}},
		{millipage.Config{Hosts: 2, SharedMemory: 1 << 16, ChunkLevel: -1}, []string{"ChunkLevel"}},
		{millipage.Config{Protocol: "lrc-mw", Hosts: 2, SharedMemory: 1 << 16, ChunkLevel: -1}, []string{"ChunkLevel"}},
		// Only millipage and its ivy preset run several threads per host.
		{millipage.Config{Protocol: "lrc-mw", Hosts: 2, SharedMemory: 1 << 16, ThreadsPerHost: 2}, []string{"ThreadsPerHost"}},
		// The host range holds under every protocol.
		{millipage.Config{Protocol: "ivy", Hosts: 0, SharedMemory: 1 << 16}, []string{"Hosts"}},
		{millipage.Config{Protocol: "lrc-mw", Hosts: 1025, SharedMemory: 1 << 16}, []string{"Hosts"}},
		{millipage.Config{Protocol: "lrc-mw", Hosts: -1, SharedMemory: 1 << 16}, []string{"Hosts"}},
		// Replicated management: millipage, home-based.
		{millipage.Config{Protocol: "lrc-mw", Hosts: 2, SharedMemory: 1 << 16, HomeBasedManagement: true,
			ManagerReplication: true}, []string{"Replication"}},
		{millipage.Config{Hosts: 2, SharedMemory: 1 << 16, ManagerReplication: true}, []string{"Replication", "HomeBased"}},
		// ivy is millipage at page grain with HomeMod: both are its preset.
		{millipage.Config{Protocol: "ivy", Hosts: 2, SharedMemory: 1 << 16, PageGranularity: true}, []string{"Grain", "PageGranularity"}},
		{millipage.Config{Protocol: "ivy", Hosts: 2, SharedMemory: 1 << 16, HomeBasedManagement: true}, []string{"HomeOf", "HomeBasedManagement"}},
		{millipage.Config{Protocol: "treadmarks", Hosts: 2, SharedMemory: 1 << 16}, []string{"treadmarks", "lrc-mw"}},
	}
	for _, tc := range rejected {
		_, err := millipage.NewCluster(tc.cfg)
		if err == nil {
			t.Errorf("config %+v accepted", tc.cfg)
			continue
		}
		for _, f := range tc.fields {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("error %q does not name Config.%s", err, f)
			}
		}
	}
	if _, err := millipage.NewCluster(millipage.Config{Hosts: 2, SharedMemory: 1 << 16}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, proto := range []string{"millipage", "ivy"} {
		if _, err := millipage.NewCluster(millipage.Config{Protocol: proto, Hosts: 2, SharedMemory: 1 << 16, ThreadsPerHost: 2}); err != nil {
			t.Fatalf("two threads per host rejected under %s: %v", proto, err)
		}
	}
}

func TestRunTwiceRejected(t *testing.T) {
	c, err := millipage.NewCluster(millipage.Config{Hosts: 1, SharedMemory: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(func(w *millipage.Worker) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(func(w *millipage.Worker) {}); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestWorkerIdentityAndTime(t *testing.T) {
	c, err := millipage.NewCluster(millipage.Config{Hosts: 3, SharedMemory: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	_, err = c.Run(func(w *millipage.Worker) {
		if w.NumHosts() != 3 || w.NumThreads() != 3 {
			t.Errorf("NumHosts/NumThreads = %d/%d", w.NumHosts(), w.NumThreads())
		}
		seen[w.Host()] = true
		before := w.Now()
		w.Compute(5 * millipage.Duration(1000)) // 5us
		if w.Now()-before != 5000 {
			t.Errorf("Compute advanced %v, want 5us", w.Now()-before)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("hosts seen = %v", seen)
	}
}

func TestSharedDataEndToEnd(t *testing.T) {
	c, err := millipage.NewCluster(millipage.Config{Hosts: 4, SharedMemory: 1 << 18, Views: 8})
	if err != nil {
		t.Fatal(err)
	}
	var arr millipage.Addr
	const n = 32
	report, err := c.Run(func(w *millipage.Worker) {
		if w.Host() == 0 {
			arr = w.Malloc(n * 8)
		}
		w.Barrier()
		// Each host fills its stripe with f64 values.
		for i := w.Host(); i < n; i += w.NumHosts() {
			w.WriteF64(arr+millipage.Addr(8*i), float64(i)*1.5)
		}
		w.Barrier()
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += w.ReadF64(arr + millipage.Addr(8*i))
		}
		want := 1.5 * float64(n*(n-1)/2)
		if sum != want {
			t.Errorf("host %d sum = %v, want %v", w.Host(), sum, want)
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Hosts != 4 || report.Elapsed <= 0 {
		t.Fatalf("report = %+v", report)
	}
	if report.Minipages != 1 {
		t.Fatalf("minipages = %d, want 1 (single allocation)", report.Minipages)
	}
}

func TestReportString(t *testing.T) {
	c, err := millipage.NewCluster(millipage.Config{Hosts: 2, SharedMemory: 1 << 16, Views: 2})
	if err != nil {
		t.Fatal(err)
	}
	var a millipage.Addr
	report, err := c.Run(func(w *millipage.Worker) {
		if w.Host() == 0 {
			a = w.Malloc(64)
			w.WriteU32(a, 7)
		}
		w.Barrier()
		_ = w.ReadU32(a)
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := report.String()
	for _, want := range []string{"hosts=2", "faults:", "breakdown:", "minipages=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("Report.String missing %q in:\n%s", want, s)
		}
	}
	c2, p, rf, wf, sy := report.AvgBreakdown()
	if tot := c2 + p + rf + wf + sy; tot < 0.999 || tot > 1.001 {
		t.Fatalf("breakdown sums to %v", tot)
	}
}

// TestManagerReplicationEndToEnd drives Config.ManagerReplication
// through the public API: with the host-1 directory primary crashed
// mid-run, a lock-guarded increment burst against minipages homed
// there completes exactly-once, long before the dead host restarts.
func TestManagerReplicationEndToEnd(t *testing.T) {
	// Validation: replication needs home-based management, which ivy
	// fixes itself.
	bad := []millipage.Config{
		{Hosts: 4, SharedMemory: 1 << 16, ManagerReplication: true},
		{Hosts: 4, SharedMemory: 1 << 16, Protocol: "ivy", HomeBasedManagement: true, ManagerReplication: true},
	}
	for i, cfg := range bad {
		if _, err := millipage.NewCluster(cfg); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}

	const (
		hosts   = 4
		victim  = 1
		incs    = 4
		restart = 2 * sim.Second
	)
	plan := &faultnet.Plan{
		Seed: 9,
		Crashes: []faultnet.Crash{
			{Host: victim, At: sim.Time(2 * sim.Millisecond), RestartAt: sim.Time(restart)},
		},
	}
	c, err := millipage.NewCluster(millipage.Config{
		Hosts: hosts, SharedMemory: 1 << 16, Views: 4, Seed: 3,
		HomeBasedManagement: true, ManagerReplication: true, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	var vas [hosts]millipage.Addr
	var maxSeen uint32
	report, err := c.Run(func(w *millipage.Worker) {
		if w.Host() == 0 {
			for i := range vas {
				vas[i] = w.Malloc(64) // minipage i, homed at host i
				w.WriteU32(vas[i], 0)
			}
		}
		w.Barrier() // pre-crash rendezvous: everyone, victim included
		if w.Host() == victim {
			return // its host crashes at 2ms; the survivors carry on
		}
		// Let the crash land and the backup promote, then hammer the
		// dead host's shard.
		w.Compute(4 * sim.Millisecond)
		for i := 0; i < incs; i++ {
			w.Lock(0)
			v := w.ReadU32(vas[victim]) + 1
			w.WriteU32(vas[victim], v)
			if v > maxSeen {
				maxSeen = v
			}
			w.Unlock(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly-once: the last increment to land observed the full sum.
	if want := uint32((hosts - 1) * incs); maxSeen != want {
		t.Fatalf("accumulator high-water = %d, want %d (increments lost or redone across the view change)", maxSeen, want)
	}
	// The burst finished long before the victim's restart: no stall.
	if report.Elapsed >= restart {
		t.Fatalf("run took %v — stalled until the victim's restart (%v)", report.Elapsed, restart)
	}
	if report.Promotions == 0 {
		t.Fatal("no promotion recorded — the shard never failed over")
	}
	if report.MirrorsSent == 0 {
		t.Fatal("no mirrors recorded — directory effects were not mirror-gated")
	}
	if !strings.Contains(report.String(), "replication:") {
		t.Fatal("Report.String has no replication line on a replicated run")
	}
}

func TestPageGranularityConfig(t *testing.T) {
	c, err := millipage.NewCluster(millipage.Config{
		Hosts: 2, SharedMemory: 1 << 16, PageGranularity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var a, b millipage.Addr
	report, err := c.Run(func(w *millipage.Worker) {
		if w.Host() == 0 {
			a = w.Malloc(64)
			b = w.Malloc(64)
			w.WriteU32(a, 1)
			w.WriteU32(b, 2)
		}
		w.Barrier()
		if w.Host() == 1 {
			if w.ReadU32(a) != 1 || w.ReadU32(b) != 2 {
				t.Error("bad values under page granularity")
			}
			// Both variables share one page minipage: a single fetch.
			// (Checked through the report below.)
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.ViewsUsed != 1 {
		t.Fatalf("views = %d, want 1 under page granularity", report.ViewsUsed)
	}
	if report.ReadFaults != 1 {
		t.Fatalf("read faults = %d, want 1 (both vars on one page)", report.ReadFaults)
	}
}

func TestDeterministicSeeds(t *testing.T) {
	run := func(seed int64) millipage.Duration {
		c, err := millipage.NewCluster(millipage.Config{
			Hosts: 4, SharedMemory: 1 << 16, Views: 4, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var a millipage.Addr
		report, err := c.Run(func(w *millipage.Worker) {
			if w.Host() == 0 {
				a = w.Malloc(128)
				w.WriteU32(a, 0)
			}
			w.Barrier()
			for i := 0; i < 5; i++ {
				w.Lock(1)
				w.WriteU32(a, w.ReadU32(a)+1)
				w.Unlock(1)
			}
			w.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return report.Elapsed
	}
	if run(42) != run(42) {
		t.Fatal("same seed, different elapsed")
	}
	if run(42) == run(43) {
		t.Log("note: different seeds coincided (possible but unlikely)")
	}
}

func TestPerfectTimersFaster(t *testing.T) {
	run := func(perfect bool) millipage.Duration {
		c, err := millipage.NewCluster(millipage.Config{
			Hosts: 2, SharedMemory: 1 << 16, Views: 2, Seed: 5, PerfectTimers: perfect,
		})
		if err != nil {
			t.Fatal(err)
		}
		var a millipage.Addr
		report, err := c.Run(func(w *millipage.Worker) {
			if w.Host() == 0 {
				a = w.Malloc(64)
				w.WriteU32(a, 1)
			}
			w.Barrier()
			// Host 1 faults while host 0 computes: service delay is
			// sweeper-bound, which is what PerfectTimers removes.
			if w.Host() == 0 {
				w.Compute(20 * 1000 * 1000) // 20ms busy
			} else {
				for i := 0; i < 10; i++ {
					w.WriteU32(a, w.ReadU32(a)+1)
					w.Compute(100 * 1000)
				}
			}
			w.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		// The fault-service delay shows up in host 1's write-fault time
		// (total elapsed is bounded by host 0's compute either way).
		for _, tr := range report.Threads {
			if tr.Host == 1 {
				return tr.WriteFlt
			}
		}
		t.Fatal("host 1 thread missing")
		return 0
	}
	slow := run(false)
	fast := run(true)
	if fast >= slow {
		t.Fatalf("PerfectTimers did not cut fault service time: %v vs %v", fast, slow)
	}
}
