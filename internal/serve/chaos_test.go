package serve

import "testing"

// must fails the test if err is not nil.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// Chaos conformance for the serving workload: the scenario rows below
// run real GET/PUT traffic while the faultnet preset mangles the wire —
// a quarter of all frames dropped and 15% duplicated under drop-heavy;
// two host crashes (including host 0, the allocation and lock
// authority, mid-burst) under crash-restart. Run validates every
// response in-line (payload integrity plus the per-client staleness
// oracle — under the SC protocols GETs are lock-free, so "responses
// never stale-read" is a protocol property, not a locking artifact) and
// replays the oracle map against the final store state. Faults may
// change timing and the latency tail; they must never change answers.

// chaosRows is the serving chaos matrix: both hostile presets across an
// SC protocol serving lock-free reads, the page-granularity baseline,
// and the multi-writer LRC protocol.
var chaosRows = []struct {
	scenario string
	protocol string
}{
	{"drop-heavy", "millipage"},
	{"drop-heavy", "ivy"},
	{"drop-heavy", "lrc-mw"},
	{"crash-restart", "millipage"},
	{"crash-restart", "ivy"},
	{"crash-restart", "lrc-mw"},
}

func TestChaosServing(t *testing.T) {
	for _, row := range chaosRows {
		row := row
		t.Run(row.scenario+"/"+row.protocol, func(t *testing.T) {
			sc, err := Lookup(row.scenario)
			must(t, err)
			sc.Protocol = row.protocol
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("serving under %s faults: %v", row.scenario, err)
			}
			if res.Violations != 0 {
				t.Fatalf("%d oracle violations; first: %s", res.Violations, res.FirstViolation)
			}
			// The preset must actually have bitten: a chaos row that never
			// exercised the reliability layer proves nothing.
			if res.Report.Retransmits == 0 {
				t.Fatal("fault preset produced no retransmits — the chaos row ran on a clean wire")
			}
			// Double-run determinism under faults: the injector draws from
			// the plan seed, so even a mangled wire replays bit-identically.
			res2, err := Run(sc)
			must(t, err)
			if res.Fingerprint != res2.Fingerprint {
				t.Fatalf("chaos serving fingerprint differs across runs: %016x vs %016x",
					res.Fingerprint, res2.Fingerprint)
			}
		})
	}
}
