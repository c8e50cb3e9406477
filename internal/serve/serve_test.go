package serve

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from this run")

func TestScenarioValidation(t *testing.T) {
	ok, err := Lookup("smoke")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"no hosts", func(s *Scenario) { s.Hosts = 0 }, "Hosts"},
		{"no keys", func(s *Scenario) { s.Keys = 0 }, "Keys"},
		{"buckets above keys", func(s *Scenario) { s.Buckets = s.Keys + 1 }, "Buckets"},
		{"clients below hosts", func(s *Scenario) { s.Clients = s.Hosts - 1 }, "Clients"},
		{"zero rate", func(s *Scenario) { s.Rate = 0 }, "Rate"},
		{"no ops", func(s *Scenario) { s.Ops = 0 }, "Ops"},
		{"bad mix", func(s *Scenario) { s.ReadFrac = 1.5 }, "ReadFrac"},
		{"negative skew", func(s *Scenario) { s.ZipfS = -1 }, "ZipfS"},
		{"unknown preset", func(s *Scenario) { s.Faults = "nonsense" }, "unknown fault preset"},
	}
	for _, tc := range cases {
		sc := ok
		tc.mutate(&sc)
		if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Fatal("Lookup accepted an unknown name")
	}
}

// TestSlotOracle unit-tests the in-line response validator: a correct
// slot passes, a corrupt payload and a sequence rollback are both
// violations, and the writer's own observations advance the watermark.
func TestSlotOracle(t *testing.T) {
	const keys = 128
	st := &threadState{seen: make(map[uint64]uint32)}
	st.observe(7, 5, encodeSlot(3, payload(5, 3)), keys)
	if st.violations != 0 {
		t.Fatalf("valid slot flagged: %s", st.firstViol)
	}
	st.observe(7, 5, encodeSlot(4, payload(5, 4)), keys)
	if st.violations != 0 {
		t.Fatalf("monotone advance flagged: %s", st.firstViol)
	}
	st.observe(7, 5, encodeSlot(3, payload(5, 3)), keys) // well-formed but older
	if st.violations != 1 || !strings.Contains(st.firstViol, "stale") {
		t.Fatalf("stale read not caught: n=%d %q", st.violations, st.firstViol)
	}
	st2 := &threadState{seen: make(map[uint64]uint32)}
	st2.observe(1, 2, encodeSlot(9, payload(2, 9)^1), keys) // flipped payload bit
	if st2.violations != 1 || !strings.Contains(st2.firstViol, "torn or cross-key") {
		t.Fatalf("corrupt payload not caught: n=%d %q", st2.violations, st2.firstViol)
	}
	// The unwritten slot is valid for every client.
	st3 := &threadState{seen: make(map[uint64]uint32)}
	st3.observe(0, 0, 0, keys)
	if st3.violations != 0 {
		t.Fatalf("zero slot flagged: %s", st3.firstViol)
	}
	if seq, pay := decodeSlot(encodeSlot(42, 0xdead)); seq != 42 || pay != 0xdead {
		t.Fatal("slot encode/decode round trip broken")
	}
}

// TestGeneratorShape checks the deterministic splits and the skew: the
// client and op shares must partition exactly, and under Zipf s=0.99
// the most popular rank must be sampled far more often than a mid one.
func TestGeneratorShape(t *testing.T) {
	for _, tc := range []struct{ total, threads int }{{100, 8}, {7, 8}, {1_000_000, 8}, {13, 4}} {
		sum := 0
		for th := 0; th < tc.threads; th++ {
			sum += clientsFor(tc.total, tc.threads, th)
		}
		if sum != tc.total {
			t.Fatalf("clientsFor(%d, %d) sums to %d", tc.total, tc.threads, sum)
		}
		sum = 0
		for th := 0; th < tc.threads; th++ {
			sum += opsFor(tc.total, tc.threads, th)
		}
		if sum != tc.total {
			t.Fatalf("opsFor(%d, %d) sums to %d", tc.total, tc.threads, sum)
		}
	}

	z := newZipf(1024, 0.99)
	r := newRNG(99)
	counts := make([]int, 1024)
	for i := 0; i < 100_000; i++ {
		counts[z.sample(r.Float64())]++
	}
	if counts[0] < 20*counts[512] {
		t.Fatalf("zipf skew too flat: rank0=%d rank512=%d", counts[0], counts[512])
	}
	u := newZipf(1024, 0)
	uc := make([]int, 1024)
	r2 := newRNG(7)
	for i := 0; i < 100_000; i++ {
		uc[u.sample(r2.Float64())]++
	}
	if uc[0] > 3*uc[512]+30 {
		t.Fatalf("uniform sampler skewed: rank0=%d rank512=%d", uc[0], uc[512])
	}

	perm := keyPermutation(4096, 1)
	seen := make([]bool, 4096)
	for _, k := range perm {
		if seen[k] {
			t.Fatalf("key %d appears twice in the permutation", k)
		}
		seen[k] = true
	}
	if p2 := keyPermutation(4096, 1); p2[0] != perm[0] || p2[4095] != perm[4095] {
		t.Fatal("permutation is not a pure function of the seed")
	}
}

// TestDeterminism is the harness's core guarantee: the same scenario
// run twice produces bit-identical fingerprints, op counts, latency
// quantiles and elapsed time.
func TestDeterminism(t *testing.T) {
	sc, err := Lookup("smoke")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints differ: %016x vs %016x", a.Fingerprint, b.Fingerprint)
	}
	if a.Elapsed != b.Elapsed || a.Ops != b.Ops || a.Gets != b.Gets {
		t.Fatal("run shape differs across identical runs")
	}
	if a.GetLat != b.GetLat || a.PutLat != b.PutLat {
		t.Fatal("latency histograms differ across identical runs")
	}
	// A different seed must actually change the stream.
	sc.Seed = 2
	c, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Fatal("seed change did not change the fingerprint")
	}
}

// TestProtocolMatrix runs one small scenario under every protocol:
// the oracle must hold everywhere, and the per-protocol latency
// profiles must be the profiles of different protocols (the LRC pair
// acquires the bucket lock on every GET; the SC pair does not).
func TestProtocolMatrix(t *testing.T) {
	sc, err := Lookup("smoke")
	if err != nil {
		t.Fatal(err)
	}
	sc.Ops = 1500
	for _, proto := range []string{"millipage", "ivy", "lrc-mw"} {
		res := runProto(t, sc, proto)
		wantLocked := proto == "lrc-mw"
		gotLocked := res.Report.LockAcquisitions >= res.Ops
		if wantLocked != gotLocked {
			t.Errorf("%s: locks=%d for %d ops; lockedReads misrouted", proto, res.Report.LockAcquisitions, res.Ops)
		}
		if res.Throughput <= 0 || res.GetLat.Count() == 0 {
			t.Errorf("%s: empty result", proto)
		}
	}
}

func runProto(t *testing.T, sc Scenario, proto string) *Result {
	t.Helper()
	sc.Protocol = proto
	sc.Name = sc.Name + "-" + proto
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("%s: %v", proto, err)
	}
	return res
}

// TestMillion is the acceptance workload: one million simulated clients,
// Zipfian keys, deterministic across two runs (the CLI's -check and the
// bench sweep rely on exactly this).
func TestMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("large scenario")
	}
	sc, err := Lookup("million")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Scenario.Clients != 1_000_000 {
		t.Fatalf("clients = %d", a.Scenario.Clients)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("million fingerprint differs across runs: %016x vs %016x", a.Fingerprint, b.Fingerprint)
	}
}

// goldenScenarios are the rows TestGoldenFingerprints pins: fast enough
// for every `go test` run, covering both SC and multi-writer protocols
// and both chaos presets.
var goldenScenarios = []string{"smoke", "smoke-lrc-mw", "drop-heavy", "crash-restart", "manager-kill"}

// TestGoldenFingerprints pins the determinism fingerprint of the golden
// scenario rows. A diff here means serving behaviour changed — generator
// stream, protocol timing, or oracle-visible responses. Regenerate with
//
//	go test ./internal/serve/ -run TestGoldenFingerprints -update
//
// and say why in the commit message.
func TestGoldenFingerprints(t *testing.T) {
	got := make(map[string]uint64, len(goldenScenarios))
	var lines []string
	for _, name := range goldenScenarios {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = res.Fingerprint
		lines = append(lines, fmt.Sprintf("%s %016x\n", name, res.Fingerprint))
	}
	const path = "testdata/fingerprints.golden"
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to create it)", err)
	}
	want := make(map[string]uint64)
	for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
		var name string
		var fp uint64
		if _, err := fmt.Sscanf(line, "%s %x", &name, &fp); err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
		want[name] = fp
	}
	for _, name := range goldenScenarios {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from golden file (rerun with -update)", name)
			continue
		}
		if got[name] != w {
			t.Errorf("%s: fingerprint %016x, golden %016x", name, got[name], w)
		}
	}
}

// TestScenarioTable sanity-checks the registry: unique names, every
// entry validates, and Lookup agrees with Names.
func TestScenarioTable(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range Scenarios() {
		if sc.Name == "" {
			t.Fatal("scenario with empty name")
		}
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.withDefaults().validate(); err != nil {
			t.Errorf("registered scenario fails validation: %v", err)
		}
	}
	for _, name := range Names() {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Names/Lookup disagree on %q: %v", name, err)
		}
	}
	// What a protocol cannot run is the kernel's to reject, by field name.
	if _, err := Run(Scenario{Protocol: "lrc-mw", Hosts: 2, Keys: 8, Buckets: 2, Clients: 2, Rate: 1000, Ops: 4, Replicated: true}); err == nil ||
		!strings.Contains(err.Error(), "Replication") {
		t.Errorf("Replicated under lrc-mw: %v, want the kernel's Replication error", err)
	}
}
