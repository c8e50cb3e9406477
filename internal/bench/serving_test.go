package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"millipage/internal/pins"
)

// TestServingWorkersInvariance is the acceptance criterion on the sweep
// layer: the serving rows — fingerprints included — must be identical
// whether the scenarios run sequentially or across the full sweep width.
// Each scenario's stream is a pure function of (seed, thread id), so the
// sweep may only change wall-clock time, never results.
func TestServingWorkersInvariance(t *testing.T) {
	names := []string{"smoke", "smoke-lrc-mw"}
	prev := SetWorkers(1)
	seq, err := RunServing(names)
	SetWorkers(4)
	par, parErr := RunServing(names)
	SetWorkers(prev)
	must(t, err)
	if parErr != nil {
		t.Fatal(parErr)
	}
	if len(seq) != len(par) {
		t.Fatalf("row counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("row %d differs across sweep widths:\n seq: %+v\n par: %+v", i, seq[i], par[i])
		}
	}
}

// TestWriteServingPreservesBenchmarks checks one half of the
// BENCH_sim.json contract: writing the serving section must leave the
// benchmarks section intact, the reader round-tripping rows it did not
// produce.
func TestWriteServingPreservesBenchmarks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_sim.json")
	pre := benchReport{
		Note:       "pinned",
		Benchmarks: []PerfPoint{{Name: "E2ESOR8", AllocsPerOp: 1, BytesPerOp: 2, EventsPerOp: 3, SwitchesPerOp: 4, CoroswitchesPerOp: 5, HopsPerOp: 6}},
	}
	must(t, writeBenchReport(path, pre))
	var out bytes.Buffer
	must(t, WriteServing(&out, []string{"smoke"}, path))
	if !strings.Contains(out.String(), "smoke") {
		t.Fatalf("table output missing the scenario row:\n%s", out.String())
	}
	post, err := readBenchReport(path)
	must(t, err)
	if post.Note != "pinned" || len(post.Benchmarks) != 1 || post.Benchmarks[0] != pre.Benchmarks[0] {
		t.Fatalf("serving write disturbed the benchmarks section: %+v", post)
	}
	if len(post.Serving) != 1 || post.Serving[0].Name != "smoke" || post.Serving[0].Fingerprint == "" {
		t.Fatalf("serving section not written: %+v", post.Serving)
	}
	if post.Serving[0].GetP999Us <= 0 || post.Serving[0].ThroughputOpsPerSec <= 0 {
		t.Fatalf("serving row missing tail latency or throughput: %+v", post.Serving[0])
	}
}

// TestWriteLedgerPreservesServing checks the other half: writing the
// benchmarks section must leave the serving section, note and rows, byte
// for byte as it was.
func TestWriteLedgerPreservesServing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	pre := benchReport{
		Note:        "old",
		Benchmarks:  []PerfPoint{{Name: "E2ESOR8", AllocsPerOp: 1}},
		ServingNote: "serving rows — recorded",
		Serving:     []ServingPoint{{Name: "smoke", Protocol: "millipage", Hosts: 4, ThroughputOpsPerSec: 1234.5678901234567, GetP999Us: 2048, Fingerprint: "00000000deadbeef"}},
	}
	must(t, writeBenchReport(path, pre))
	serving := func() (note, rows json.RawMessage) {
		blob, err := os.ReadFile(path)
		must(t, err)
		var raw map[string]json.RawMessage
		must(t, json.Unmarshal(blob, &raw))
		return raw["serving_note"], raw["serving"]
	}
	noteBefore, rowsBefore := serving()
	ledger := []PerfPoint{{Name: "E2ESOR8", AllocsPerOp: 5, BytesPerOp: 6, EventsPerOp: 7, SwitchesPerOp: 8, CoroswitchesPerOp: 9, HopsPerOp: 10}}
	must(t, writeLedger(path, ledger))
	if note, rows := serving(); !bytes.Equal(note, noteBefore) || !bytes.Equal(rows, rowsBefore) {
		t.Fatalf("ledger write changed the serving section:\nbefore: %s %s\nafter:  %s %s", noteBefore, rowsBefore, note, rows)
	}
	post, err := readBenchReport(path)
	must(t, err)
	if post.Note != ledgerNote || len(post.Benchmarks) != 1 || post.Benchmarks[0] != ledger[0] {
		t.Fatalf("benchmarks section not written: %+v", post)
	}
}

// TestServingRowsPinned checks the repo-root BENCH_sim.json against a
// live run: the recorded fingerprint of each serving row must match what
// the scenario produces today, so the published latency percentiles are
// never from a stream the current code no longer generates. Rows for
// scenarios this build does not know are a failure too — stale names
// mean the file was not regenerated after a registry change. Under
// UPDATE_PINS=1 each row it replays is rewritten from the live run.
func TestServingRowsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the recorded serving scenarios")
	}
	report := pinnedReport(t)
	if len(report.Serving) == 0 {
		t.Fatal("BENCH_sim.json has no serving rows")
	}
	for i, row := range report.Serving {
		if row.Name == "million" {
			continue // covered by TestMillion in internal/serve; too big for this gate
		}
		pts, err := RunServing([]string{row.Name})
		if err != nil {
			t.Errorf("%s: %v", row.Name, err)
			continue
		}
		if pins.Update() {
			report.Serving[i] = pts[0]
		} else if pts[0].Fingerprint != row.Fingerprint {
			t.Errorf("%s: fingerprint %s, recorded %s; %s", row.Name, pts[0].Fingerprint, row.Fingerprint, rerecord(t))
		}
	}
	rewritePinned(t, report)
}
