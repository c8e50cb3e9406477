package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"millipage/internal/serve"
)

var quickOpts = options{Seed: 5, Seconds: 0, Quick: true, Setups: 1}

// TestBenchmarkFileMatchesCode: the workload and metric names in code
// equal the lists in BENCHMARK.json exactly, and the file keeps within
// the limits its contract sets.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.checkAgainstCode(); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range bf.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var setupBound, maxBound float64
	for _, m := range bf.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		maxBound = math.Max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better; is %s, %s", m.Unit, m.Better)
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be present with the largest bound: has %v, largest %v", setupBound, maxBound)
	}
	for _, m := range bf.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1 to 128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}
}

// TestSeedReachesWorkloads: every correctness check is green under two
// seeds, a seed's second rep-set repeats its first bit for bit, and the
// two seeds give different virtual-clock metrics on every workload.
// (Two whole runs of one seed are compared in TestAllWorkloadsAndCompare.)
func TestSeedReachesWorkloads(t *testing.T) {
	pass := func(seed int64) []*measurement {
		o := quickOpts
		o.Seed = seed
		ms, err := measure(workloads, o, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if m.Failed != 0 || m.Mismatch != "" {
				t.Errorf("seed %d %s: %d of %d ops failed (%s) %s", seed, m.W.Name, m.Failed, m.Ops, m.Note, m.Mismatch)
			}
			if len(m.Reps) != o.reps() {
				t.Errorf("seed %d %s: %d distinct reps, want %d", seed, m.W.Name, len(m.Reps), o.reps())
			}
			for _, d := range endToEnd {
				if d.Clock == virtualClock && !(m.virt()[d.Name] > 0) {
					t.Errorf("seed %d %s: %s = %v, must never be 0", seed, m.W.Name, d.Name, m.virt()[d.Name])
				}
			}
		}
		return ms
	}
	a, c := pass(5), pass(1001)
	for i, w := range workloads {
		// One rep past the distinct seeds reruns the first seed and is
		// checked against it.
		a[i].timedRep(quickOpts, len(a[i].WallMs))
		if a[i].Mismatch != "" || len(a[i].Reps) != quickOpts.reps() {
			t.Errorf("%s: repeated seed: %q, %d distinct reps", w.Name, a[i].Mismatch, len(a[i].Reps))
		}
		if diffVirt(a[i].virt(), c[i].virt()) == "" {
			t.Errorf("%s: seeds 5 and 1001 give identical virtual-clock metrics; the seed does not reach the workload", w.Name)
		}
	}
}

// TestTracedPassDoesNotPerturb: a profiled, span-recorded pass computes
// exactly what the untraced pass does, and its profile decodes.
func TestTracedPassDoesNotPerturb(t *testing.T) {
	ws := []*workload{lookupWorkload("water8"), lookupWorkload("serve-lossy")}
	plain, err := measure(ws, quickOpts, false)
	if err != nil {
		t.Fatal(err)
	}
	o := quickOpts
	o.rec = newRecorder()
	traced, err := measure(ws, o, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if d := diffVirt(plain[i].virt(), traced[i].virt()); d != "" {
			t.Errorf("%s: tracing changed the simulation: %s", w.Name, d)
		}
		if _, err := parseProfile(traced[i].Profile); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	// <workload>/rep contains <workload>/run and <workload>/verify.
	kids := map[string]int{}
	for _, s := range o.rec.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
		if s.Parent >= 0 && o.rec.spans[s.Parent].Name == "water8/rep" {
			kids[s.Name]++
		}
	}
	if kids["water8/run"] == 0 || kids["water8/run"] != kids["water8/verify"] {
		t.Errorf("water8/rep spans hold %v, want one run and one verify each", kids)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := o.rec.write(path); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedViolationFails: an oracle violation inside a serving run
// surfaces as failed operations and an incorrect result.
func TestInjectedViolationFails(t *testing.T) {
	defer func(orig func(serve.Scenario) (*serve.Result, error)) { serveRun = orig }(serveRun)
	serveRun = func(sc serve.Scenario) (*serve.Result, error) {
		res, err := serve.Run(sc)
		if err != nil {
			return res, err
		}
		res.Violations, res.FirstViolation = 3, "injected: stale read"
		return res, errors.New("serve: 3 oracle violation(s)")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-workload", "serve-write", "-seconds", "0.01", "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	res := lastLine(t, stdout.String())
	if res.Correct || res.Failed == 0 || res.Failed >= res.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d, want an incorrect run with some failed ops", res.Correct, res.Failed, res.Attempted)
	}
}

type resultLine struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(raw) != 4 {
		t.Errorf("result line has %d keys, want exactly correct, attempted, failed, metrics", len(raw))
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDriverContract: a single-workload run prints, as its last line,
// exactly the end-to-end metrics untraced and exactly the per-layer
// metrics traced; the traced run's layer and ledger shares sum to 1.
func TestDriverContract(t *testing.T) {
	for _, tc := range []struct {
		trace string
		want  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"--quick", "--workload", "water8-mw", "--seed", "3", "--seconds", "0.2", "--trace", tc.trace, "--out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, stderr.String())
		}
		res := lastLine(t, stdout.String())
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: correct=%v failed=%d attempted=%d\n%s", tc.trace, res.Correct, res.Failed, res.Attempted, stdout.String())
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.want))
		}
		for _, d := range tc.want {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or in the wrong unit: %+v", tc.trace, d.Name, m)
				continue
			}
			if tc.trace == "0" && !(*m.Value > 0) {
				t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, *m.Value)
			}
		}
		if tc.trace == "1" {
			v := func(n string) float64 { return *res.Metrics[n].Value }
			ledger := v("apps.sim_compute_share") + v("dsm.sim_read_fault_share") + v("dsm.sim_write_fault_share") +
				v("dsm.sim_prefetch_share") + v("cluster.sim_synch_share")
			if math.Abs(ledger-1) > 1e-9 {
				t.Errorf("virtual-clock thread-time shares sum to %v, want 1", ledger)
			}
			if v("lrc.cpu_share")+v("twindiff.cpu_share") == 0 {
				t.Log("no lrc/twindiff samples in the short profile (quick sizes)")
			}
		}
	}
}

// TestAllWorkloadsAndCompare: an all-workload run writes a results file
// that compares as identical on the virtual clock against a second run
// of the same seed, and a worsened copy is called a regression.
func TestAllWorkloadsAndCompare(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	results := func() *resultsFile {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-quick", "-seconds", "0.01", "-out", dir}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s\n%s", code, stderr.String(), stdout.String())
		}
		rf, err := readResults(filepath.Join(dir, "results.json"))
		if err != nil {
			t.Fatal(err)
		}
		return rf
	}
	a, b := results(), results()
	if len(a.Workloads) != len(workloads) || a.Header.Nproc < 1 || a.Header.GoVersion == "" || a.Header.CalibNs <= 0 {
		t.Errorf("results header or workload list incomplete: %+v", a.Header)
	}
	var out bytes.Buffer
	// Host-clock noise at test sizes can exceed any bound; only the
	// virtual-clock verdicts are asserted.
	compareResults(&out, bf, a, b)
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, " sim_") && !strings.Contains(line, vIdentical) {
			t.Errorf("same seed, virtual-clock metric not identical: %s", line)
		}
	}
	if strings.Contains(out.String(), "ledger differs") {
		t.Errorf("same seed, ledgers differ:\n%s", out.String())
	}

	worse := *b.Workloads[0]
	worse.EndToEnd = map[string]stat{}
	for n, s := range b.Workloads[0].EndToEnd {
		worse.EndToEnd[n] = s
	}
	s := worse.EndToEnd["sim_op_us"]
	s.Value *= 1.5
	worse.EndToEnd["sim_op_us"] = s
	worse.Failed = 1
	c := *b
	c.Workloads = append([]*workloadResult{&worse}, b.Workloads[1:]...)
	out.Reset()
	if code := compareResults(&out, bf, a, &c); code != 1 {
		t.Errorf("a 1.5x sim_op_us and a failed op compare with exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), vWorse) {
		t.Errorf("no %q verdict in:\n%s", vWorse, out.String())
	}
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		clock, better     string
		base, next, drift float64
		want              string
	}{
		{virtualClock, "lower", 100, 100, 0, vIdentical},
		{virtualClock, "lower", 100, 100.5, 0, vUnchanged},
		{virtualClock, "lower", 100, 120, 0, vWorse},
		{virtualClock, "higher", 100, 120, 0, vBetter},
		{hostClock, "lower", 100, 100, 0, vUnchanged},
		{hostClock, "lower", 100, 80, 0.01, vBetter},
		{hostClock, "lower", 100, 120, 0.01, vWorse},
		{hostClock, "lower", 100, 120, 0.2, vUnresolved},
	} {
		if got := judge(tc.clock, tc.better, tc.base, tc.next, 0.1, tc.drift); got != tc.want {
			t.Errorf("judge(%s, %s, %v -> %v, drift %v) = %s, want %s", tc.clock, tc.better, tc.base, tc.next, tc.drift, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

// Protobuf writers for the synthetic profile.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbField(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, data []byte) []byte {
	return append(pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(data))), data...)
}

// TestPprofRoundTrip: the decoder reads back a synthetic profile —
// packed and unpacked repeated fields, an inlined frame, a fixed-width
// field to skip — and the attribution puts each stack in its layer.
func TestPprofRoundTrip(t *testing.T) {
	strs := []string{"", "runtime.mallocgc", "millipage/internal/sim.(*Queue[go.shape.*millipage/internal/fastmsg.Message]).Get",
		"millipage/internal/faultnet.(*Injector).Decide", "millipage.(*Worker).Read", "main.(*measurement).timedRep",
		"runtime.gcBgMarkWorker", "millipage/internal/hostset.Set.Add", "millipage/internal/apps.RunSOR.func1"}
	var p []byte
	for i := 1; i < len(strs); i++ { // function i is named strs[i]; location i holds it
		fn := pbField(pbField(nil, 1, uint64(i)), 2, uint64(i))
		p = pbBytes(p, 5, fn)
		loc := pbField(nil, 1, uint64(i))
		if i == 2 { // location 2 inlines function 1 into function 2
			loc = pbBytes(loc, 4, pbField(nil, 1, 1))
		}
		loc = pbBytes(loc, 4, pbField(pbField(nil, 1, uint64(i)), 2, 42))
		p = pbBytes(p, 4, loc)
	}
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	sample := func(count uint64, packed bool, locs ...uint64) {
		var s []byte
		if packed {
			var ids []byte
			for _, l := range locs {
				ids = pbVarint(ids, l)
			}
			s = pbBytes(s, 1, ids)
			s = pbBytes(s, 2, pbVarint(pbVarint(nil, count), count*4_000_000))
		} else {
			for _, l := range locs {
				s = pbField(s, 1, l)
			}
			s = pbField(pbField(s, 2, count), 2, count*4_000_000)
		}
		p = pbBytes(p, 2, s)
	}
	sample(5, true, 1, 2, 8)                                // malloc inlined under sim.Queue.Get under apps: sim
	sample(3, false, 3, 4)                                  // faultnet under root: fastmsg
	sample(2, true, 1, 4, 8)                                // runtime under root under apps: root
	sample(7, true, 1, 5)                                   // harness only: left out
	sample(4, false, 6)                                     // collector: goruntime
	sample(1, true, 7, 8)                                   // hostset: other
	sample(5, true, 8)                                      // apps
	p = append(pbVarint(p, 9<<3|1), 1, 2, 3, 4, 5, 6, 7, 8) // a fixed64 field to skip
	p = pbField(p, 10, 99)                                  // a varint field to skip

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 {
		t.Fatalf("%d samples, want 7", len(samples))
	}
	if got := strings.Join(samples[0].Stack, " < "); got != strs[1]+" < "+strs[1]+" < "+strs[2]+" < "+strs[8] || samples[0].Count != 5 {
		t.Errorf("sample 0 = %d x %s", samples[0].Count, got)
	}
	shares, total := layerShares(samples)
	if total != 20 {
		t.Errorf("%d samples attributed, want 20 (27 less the harness's 7)", total)
	}
	want := map[string]float64{"sim": 5, "fastmsg": 3, "root": 2, "goruntime": 4, "other": 1, "apps": 5}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]/20) > 1e-12 {
			t.Errorf("layer %s share %v, want %v", l, shares[l], want[l]/20)
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("layer shares sum to %v, want 1 +- 0.01", sum)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile decodes without error")
	}
}
