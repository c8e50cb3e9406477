package apps

import (
	"math"
	"strings"
	"testing"
)

// small returns test-scale parameters: fast but large enough that every
// sharing pattern (remote fetches, invalidations, locks) is exercised.
func small(hosts int) Params {
	return Params{Hosts: hosts, Scale: 0.02, Seed: 1}
}

// checkAgree verifies an application computes the same answer on 1 host
// and on n hosts — the sequential-consistency acceptance test.
func checkAgree(t *testing.T, run Runner, hosts int, tol float64) (Result, Result) {
	t.Helper()
	r1, err := run(small(1))
	if err != nil {
		t.Fatalf("1 host: %v", err)
	}
	rn, err := run(small(hosts))
	if err != nil {
		t.Fatalf("%d hosts: %v", hosts, err)
	}
	if !r1.Checked || !rn.Checked {
		t.Fatalf("checks did not run: %v %v", r1.Checked, rn.Checked)
	}
	if tol == 0 {
		if r1.Check != rn.Check {
			t.Fatalf("checksum mismatch: 1 host %v, %d hosts %v", r1.Check, hosts, rn.Check)
		}
	} else {
		rel := math.Abs(r1.Check-rn.Check) / math.Max(math.Abs(r1.Check), 1)
		if rel > tol {
			t.Fatalf("checksum divergence %.2e: 1 host %v, %d hosts %v", rel, r1.Check, hosts, rn.Check)
		}
	}
	return r1, rn
}

func TestSORAgreesAcrossHosts(t *testing.T) {
	r1, r4 := checkAgree(t, RunSOR, 4, 0)
	if r4.Timed <= 0 || r1.Timed <= 0 {
		t.Fatal("no timed section recorded")
	}
	// Barrier count: the paper's 21 (10 red/black iterations + start)
	// plus one address-publication barrier after allocation (the original
	// computes row addresses statically).
	if got := r4.Report.Barriers; got != 22 {
		t.Fatalf("barriers = %d, want 22 (21 + allocation barrier)", got)
	}
}

func TestSORSpeedsUpAtScale(t *testing.T) {
	// At tiny scale communication dominates; at a quarter of the paper's
	// input the row-band partitioning must beat one host clearly.
	p := Params{Hosts: 4, Scale: 0.25, Seed: 1}
	r4, err := RunSOR(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Hosts = 1
	r1, err := RunSOR(p)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(r1.Timed) / float64(r4.Timed)
	if speedup < 2.0 {
		t.Fatalf("4-host speedup = %.2f, want >= 2 (paper: near-linear)", speedup)
	}
}

func TestISAgreesAcrossHosts(t *testing.T) {
	r1, r4 := checkAgree(t, RunIS, 4, 0)
	if r4.Timed >= r1.Timed {
		t.Fatalf("no speedup: 1 host %v, 4 hosts %v", r1.Timed, r4.Timed)
	}
	// 10 iterations x (hosts phases + ranking) + start barrier.
	want := uint64(10*(4+1) + 1)
	if got := r4.Report.Barriers; got != want {
		t.Fatalf("barriers = %d, want %d", got, want)
	}
	if r4.Report.LockAcquisitions != 0 {
		t.Fatalf("IS used %d locks; Table 2 lists none", r4.Report.LockAcquisitions)
	}
	// Scale 0.02's key count is not a multiple of 8: every key is ranked
	// at 8 hosts too, none dropped with the remainder.
	checkAgree(t, RunIS, 8, 0)
}

func TestWATERAgreesAcrossHosts(t *testing.T) {
	// Floating-point accumulation order differs across host counts (lock
	// order), so allow a small relative tolerance.
	_, r4 := checkAgree(t, RunWATER, 4, 1e-6)
	if r4.Report.Barriers != 4*7+1 {
		t.Fatalf("barriers = %d, want 29", r4.Report.Barriers)
	}
	if r4.Report.LockAcquisitions == 0 {
		t.Fatal("WATER used no locks; Table 2 lists thousands")
	}
}

func TestWATERChunkingReducesFaults(t *testing.T) {
	p := small(4)
	plain, err := RunWATER(p)
	if err != nil {
		t.Fatal(err)
	}
	p.ChunkLevel = 4
	chunked, err := RunWATER(p)
	if err != nil {
		t.Fatal(err)
	}
	pf := plain.Report.ReadFaults + plain.Report.WriteFaults
	cf := chunked.Report.ReadFaults + chunked.Report.WriteFaults
	if cf >= pf {
		t.Fatalf("chunking did not reduce faults: %d -> %d", pf, cf)
	}
	// And the opposite tendency (Figure 7): competing requests rise.
	if chunked.Report.CompetingRequests < plain.Report.CompetingRequests {
		t.Logf("note: competing %d -> %d (expected to rise at full scale)",
			plain.Report.CompetingRequests, chunked.Report.CompetingRequests)
	}
}

func TestLUAgreesAcrossHosts(t *testing.T) {
	// LU block updates are applied in identical order regardless of the
	// partitioning, so the checksum matches bitwise.
	r1, r4 := checkAgree(t, RunLU, 4, 0)
	if r4.Timed >= r1.Timed {
		t.Fatalf("no speedup: 1 host %v, 4 hosts %v", r1.Timed, r4.Timed)
	}
	if r4.Report.ViewsUsed != 1 {
		t.Fatalf("LU views = %d, want 1 (Table 2)", r4.Report.ViewsUsed)
	}
}

func TestLUFactorizationIsCorrect(t *testing.T) {
	// Self-check of the numerics at a tiny size: factor, then verify
	// L*U row sums resemble the original (smoke check on the kernels).
	a := make([]float32, luBlock*luBlock)
	for i := 0; i < luBlock; i++ {
		for j := 0; j < luBlock; j++ {
			v := float32(1.0 / (1.0 + float64(i+j)))
			if i == j {
				v += luBlock
			}
			a[i*luBlock+j] = v
		}
	}
	orig := append([]float32(nil), a...)
	factorBlock(a)
	// Reconstruct a[0][*] = U[0][*] and a[*][0] = L[*][0]*U[0][0].
	for j := 0; j < luBlock; j++ {
		if math.Abs(float64(a[j]-orig[j])) > 1e-5 {
			t.Fatalf("U row 0 col %d = %v, want %v", j, a[j], orig[j])
		}
	}
	for i := 1; i < luBlock; i++ {
		got := a[i*luBlock] * a[0]
		if math.Abs(float64(got-orig[i*luBlock])) > 1e-3 {
			t.Fatalf("L col 0 row %d reconstructs %v, want %v", i, got, orig[i*luBlock])
		}
	}
}

func TestTSPFindsOptimumAcrossHosts(t *testing.T) {
	// Branch and bound returns the exact optimum under any schedule, so
	// checksums agree exactly. Test scale shrinks the instance.
	r1, r4 := checkAgree(t, RunTSP, 4, 0)
	if r4.Report.Barriers != 3 {
		t.Fatalf("barriers = %d, want 3 (Table 2)", r4.Report.Barriers)
	}
	if r1.Check <= 0 {
		t.Fatal("degenerate tour length")
	}
}

func TestTSPGreedyIsUpperBound(t *testing.T) {
	dist := tspDistances(12, 1)
	greedy := tspGreedy(dist, true)
	// The optimum found by a full search can't exceed the greedy bound.
	r, err := RunTSP(Params{Hosts: 1, Scale: 12.0 / 19.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if uint32(r.Check) > greedy {
		t.Fatalf("optimum %v exceeds greedy bound %d", r.Check, greedy)
	}
}

func TestSuiteIsComplete(t *testing.T) {
	s := Suite()
	if len(s) != 5 {
		t.Fatalf("suite has %d apps, want 5", len(s))
	}
	names := []string{"SOR", "IS", "WATER", "LU", "TSP"}
	for i, app := range s {
		if app.Name != names[i] {
			t.Fatalf("suite[%d] = %s, want %s", i, app.Name, names[i])
		}
	}
}

func TestTable2ViewCounts(t *testing.T) {
	// The per-application view counts of Table 2 emerge from the
	// allocation sizes: SOR 16, IS 8 (at 8 hosts), WATER 6, LU 1, TSP 27.
	cases := []struct {
		run   Runner
		p     Params
		views int
	}{
		{RunSOR, Params{Hosts: 2, Scale: 0.01}, 16},
		{RunWATER, Params{Hosts: 2, Scale: 0.1}, 6},
		{RunLU, Params{Hosts: 2, Scale: 0.125}, 1},
		{RunTSP, Params{Hosts: 2, Scale: 1}, 27},
	}
	for _, c := range cases {
		r, err := c.run(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Report.ViewsUsed != c.views {
			t.Errorf("%s views = %d, want %d", r.Name, r.Report.ViewsUsed, c.views)
		}
	}
}

// TestParamsRejected: every application refuses Params it cannot honour,
// with an error naming the field — a negative Scale used to clamp every
// data set to its minimum without a word, and Engine/ParWorkers survive
// only as a shim that accepts their zero values.
func TestParamsRejected(t *testing.T) {
	cases := []struct {
		p     Params
		field string
	}{
		{Params{Hosts: -1, Scale: 0.02}, "apps: Hosts"},
		{Params{Hosts: 2, Scale: -1}, "Scale"},
		{Params{Hosts: 2, Scale: 0.02, Engine: "par"}, "Engine"},
		{Params{Hosts: 2, Scale: 0.02, ParWorkers: 2}, "ParWorkers"},
	}
	for _, app := range Suite() {
		for _, c := range cases {
			if _, err := app.Run(c.p); err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s(%+v): error = %v, want one naming %s", app.Name, c.p, err, c.field)
			}
		}
		if _, err := app.Run(Params{Hosts: 2, Scale: 0.02, Engine: "seq"}); err != nil {
			t.Errorf("%s: Engine \"seq\" rejected: %v", app.Name, err)
		}
	}
}
