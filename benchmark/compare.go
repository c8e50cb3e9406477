package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of -compare, per (workload x gated metric).
const (
	vIdentical  = "identical"  // virtual clock: bit-equal
	vUnchanged  = "unchanged"  // within the bound either way
	vBetter     = "better"     // better by more than the bound
	vWorse      = "worse"      // worse by more than the bound: a regression
	vUnresolved = "unresolved" // a run's own drift exceeds the bound: says nothing
)

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// worseBy is how much worse next is than base, as a share of base:
// positive = worse, whichever direction is better for the metric.
func worseBy(better string, base, next float64) float64 {
	d := (next - base) / math.Abs(base)
	if better == "higher" {
		d = -d
	}
	return d
}

// judge gives the verdict for one metric. drift is the larger of the two
// runs' own first-half/second-half disagreement, as a share of the value.
func judge(clock, better string, base, next, bound, drift float64) string {
	if clock == virtualClock && math.Float64bits(base) == math.Float64bits(next) {
		return vIdentical
	}
	d := worseBy(better, base, next)
	switch {
	case clock == hostClock && drift > bound:
		return vUnresolved
	case d > bound:
		return vWorse
	case d < -bound:
		return vBetter
	}
	return vUnchanged
}

func drift(s stat) float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.FirstHalf-s.SecondHalf) / math.Abs(s.Value)
}

// compareFiles judges next against base with BENCHMARK.json's bounds and
// returns the exit code: 1 on any regression or any rise in the share of
// failed operations.
func compareFiles(w io.Writer, bf *benchmarkFile, basePath, nextPath string) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(w, "benchmark:", err)
		return 2
	}
	next, err := readResults(nextPath)
	if err != nil {
		fmt.Fprintln(w, "benchmark:", err)
		return 2
	}
	return compareResults(w, bf, base, next)
}

func compareResults(w io.Writer, bf *benchmarkFile, base, next *resultsFile) int {
	fmt.Fprintf(w, "base: commit %s seed %d host.calib_ns %.1f   new: commit %s seed %d host.calib_ns %.1f\n",
		base.Header.Commit, base.Header.Seed, base.Header.CalibNs, next.Header.Commit, next.Header.Seed, next.Header.CalibNs)
	if base.Header.Seed != next.Header.Seed || base.Header.VirtualReps != next.Header.VirtualReps || base.Header.Quick != next.Header.Quick {
		fmt.Fprintln(w, "note: the runs differ in seed or sizes, so virtual-clock metrics cannot be identical")
	}
	regressions := 0
	row := func(wl, name, unit, verdict string, b, n float64) {
		fmt.Fprintf(w, "  %-12s %-24s %-10s new/base = %.4f (base %.6g %s)\n", wl, name, verdict, n/b, b, unit)
		if verdict == vWorse {
			regressions++
		}
	}
	for _, bw := range base.Workloads {
		var nw *workloadResult
		for _, c := range next.Workloads {
			if c.Name == bw.Name {
				nw = c
			}
		}
		if nw == nil {
			fmt.Fprintf(w, "  %-12s missing from the new results\n", bw.Name)
			regressions++
			continue
		}
		for _, d := range endToEnd {
			b, n := bw.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			bound := bf.bound(d.Name)
			if d.Name == "setup_s" && b.Value > 0 {
				// Set-up is short: a quarter of a second either way is
				// within what the box does on its own.
				bound = math.Max(bound, 0.25/b.Value)
			}
			row(bw.Name, d.Name, d.Unit, judge(d.Clock, d.Better, b.Value, n.Value, bound, math.Max(drift(b), drift(n))), b.Value, n.Value)
		}
		// The user-visible virtual-clock numbers that only one workload
		// family has: gated here, where applicability is known.
		for _, d := range perLayer {
			bound, gated := alsoGated[d.Name]
			b, n := bw.Ledger[d.Name], nw.Ledger[d.Name]
			if gated && b != 0 && n != 0 {
				row(bw.Name, d.Name, d.Unit, judge(d.Clock, d.Better, b, n, bound, 0), b, n)
			}
		}
		bs, ns := failedShare(bw), failedShare(nw)
		verdict := vUnchanged
		if ns > bs {
			verdict = vWorse
			regressions++
		}
		fmt.Fprintf(w, "  %-12s %-24s %-10s failed_share %g -> %g (ops %d -> %d)\n", bw.Name, "failed_share", verdict, bs, ns, bw.Ops, nw.Ops)
		if moved := firstMoved(bw.Ledger, nw.Ledger); moved != "" {
			fmt.Fprintf(w, "  %-12s virtual-clock ledger differs; first counter that moved: %s\n", bw.Name, moved)
		} else {
			fmt.Fprintf(w, "  %-12s virtual-clock ledger identical\n", bw.Name)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(w, "no regression")
	return 0
}

func failedShare(wr *workloadResult) float64 {
	if wr.Ops == 0 {
		return 1
	}
	return float64(wr.Failed) / float64(wr.Ops)
}

// firstMoved names the first ledger entry, in name order, present in
// both runs with different values. serve.sim_max_rate_ops is only there
// after a traced pass, so a one-sided entry is not a difference.
func firstMoved(base, next map[string]float64) string {
	names := make([]string, 0, len(base))
	for n := range base {
		if _, ok := next[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if math.Float64bits(base[n]) != math.Float64bits(next[n]) {
			return fmt.Sprintf("%s %v -> %v", n, base[n], next[n])
		}
	}
	return ""
}
