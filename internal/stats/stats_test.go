package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"millipage/internal/sim"
)

func TestBasicAggregates(t *testing.T) {
	var h Histogram
	for _, d := range []sim.Duration{10 * sim.Microsecond, 20 * sim.Microsecond, 30 * sim.Microsecond} {
		h.Add(d)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 20*sim.Microsecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.max != 30*sim.Microsecond {
		t.Fatalf("max = %v", h.max)
	}
}

func TestQuantileBounds(t *testing.T) {
	var h Histogram
	// 99 fast observations, one slow outlier (the NT timer shape).
	for i := 0; i < 99; i++ {
		h.Add(50 * sim.Microsecond)
	}
	h.Add(2 * sim.Millisecond)
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	p100 := h.Quantile(1.0)
	if p50 < 50*sim.Microsecond || p50 > 200*sim.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	if p99 < 50*sim.Microsecond || p99 > 200*sim.Microsecond {
		t.Fatalf("p99 = %v (99/100 observations are 50us)", p99)
	}
	if p100 < 2*sim.Millisecond {
		t.Fatalf("p100 = %v, must cover the outlier", p100)
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	a.Add(10 * sim.Microsecond)
	b.Add(30 * sim.Microsecond)
	b.Add(50 * sim.Microsecond)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Fatalf("count = %d", a.Count())
	}
	if a.Mean() != 30*sim.Microsecond {
		t.Fatalf("mean = %v", a.Mean())
	}
	if a.max != 50*sim.Microsecond {
		t.Fatalf("max = %v", a.max)
	}
}

func TestSummary(t *testing.T) {
	var h Histogram
	if h.Summary() != "n=0" {
		t.Fatalf("empty summary = %q", h.Summary())
	}
	for i := 0; i < 100; i++ {
		h.Add(sim.Duration(i+1) * sim.Microsecond)
	}
	if !strings.Contains(h.Summary(), "n=100") {
		t.Fatalf("summary = %q", h.Summary())
	}
}

// TestP999Tail pins the serving-report tail quantile: with 990 fast
// observations and 10 slow outliers, p99 stays in the fast band (the
// 990th-smallest observation is fast) while p999 must cover the
// outliers' bucket — the tail the mean flattens.
func TestP999Tail(t *testing.T) {
	var h Histogram
	for i := 0; i < 990; i++ {
		h.Add(50 * sim.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Add(5 * sim.Millisecond)
	}
	if p99 := h.P99(); p99 > 200*sim.Microsecond {
		t.Fatalf("p99 = %v (990/1000 observations are 50us)", p99)
	}
	if p999 := h.P999(); p999 < 5*sim.Millisecond {
		t.Fatalf("p999 = %v, must cover the 5ms outlier", p999)
	}
	if h.P50() != h.Quantile(0.50) {
		t.Fatal("P50 disagrees with Quantile(0.50)")
	}
	if !strings.Contains(h.String(), "p999=") {
		t.Fatalf("String() = %q, want the p999 field", h.String())
	}
	var empty Histogram
	if empty.String() != "n=0" {
		t.Fatalf("empty String() = %q", empty.String())
	}
}

// TestMergeDeterministic proves what the serving harness relies on:
// merging per-thread histograms gives identical aggregates whatever the
// merge order, so the combined quantiles are a pure function of the
// observations.
func TestMergeDeterministic(t *testing.T) {
	parts := make([]Histogram, 4)
	r := uint64(12345)
	for i := range parts {
		for j := 0; j < 500; j++ {
			r = r*6364136223846793005 + 1442695040888963407
			parts[i].Add(sim.Duration(r%5_000_000) + 1)
		}
	}
	var fwd, rev Histogram
	for i := range parts {
		fwd.Merge(&parts[i])
	}
	for i := len(parts) - 1; i >= 0; i-- {
		rev.Merge(&parts[i])
	}
	if fwd != rev {
		t.Fatal("merge order changed the histogram state")
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		if fwd.Quantile(q) != rev.Quantile(q) {
			t.Fatalf("quantile %g differs across merge orders", q)
		}
	}
	if fwd.Count() != 2000 || fwd.max != rev.max {
		t.Fatalf("aggregates differ: n=%d", fwd.Count())
	}
}

// Property: the bucketed quantile is always an upper bound on the exact
// quantile and within one bucket (2x) of it.
func TestQuantileProperty(t *testing.T) {
	f := func(raw []uint32, qSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 256 {
			raw = raw[:256]
		}
		var h Histogram
		ds := make([]sim.Duration, len(raw))
		for i, r := range raw {
			ds[i] = sim.Duration(r%10_000_000) + 1 // up to 10ms
			h.Add(ds[i])
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		q := float64(qSel%100+1) / 100
		// Same convention as Histogram.Quantile: the ceil(q*n)-th smallest.
		idx := int(math.Ceil(q*float64(len(ds)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ds) {
			idx = len(ds) - 1
		}
		exact := ds[idx]
		got := h.Quantile(q)
		// Upper bound within ~2x bucket resolution (plus one bucket slack).
		return got >= exact/2 && (got <= 4*exact+sim.Microsecond)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// bucketOfLoop is the shift-and-count bucketOf that math/bits replaced,
// kept as the reference: every pinned Summary and golden was produced by
// it, so the two must agree on every input.
func bucketOfLoop(d sim.Duration) int {
	if d <= 0 {
		return 0
	}
	v := uint64(d) / 125
	if v == 0 {
		return 0
	}
	b := 63
	for v&(1<<63) == 0 {
		v <<= 1
		b--
	}
	return b
}

func TestBucketOfMatchesReference(t *testing.T) {
	ds := []sim.Duration{math.MinInt64, -1, 0, 1, 124, 125, 126, 249, 250, 251, math.MaxInt64}
	for k := 1; k < 63; k++ {
		p := sim.Duration(1) << k
		ds = append(ds, p-1, p, p+1, 125*p-1, 125*p, 125*p+1)
	}
	for _, d := range ds {
		got, want := bucketOf(d), bucketOfLoop(d)
		if got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", int64(d), got, want)
		}
		if got < 0 || got > 63 {
			t.Errorf("bucketOf(%d) = %d, outside the histogram", int64(d), got)
		}
	}
}
