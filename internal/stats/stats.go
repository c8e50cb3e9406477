// Package stats provides small, allocation-free statistics helpers for
// the simulation: logarithmic latency histograms with quantile queries,
// and running aggregates. The paper reports means ("an average delay of
// about 750us"), but tail behaviour is what the NT timer pathology
// actually produces — the histograms make it visible.
package stats

import (
	"fmt"
	"math"
	"math/bits"

	"millipage/internal/sim"
)

// Histogram is a log-scale latency histogram: bucket i covers durations
// in [2^i, 2^(i+1)) microsecond-eighths (units of 125 ns), so buckets are
// powers of two and a quantile read from one is an upper bound within 2x
// of the true value. 64 buckets reach from 125 ns past any run's length.
// The zero value is ready to use.
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     sim.Duration
	max     sim.Duration
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d sim.Duration) int {
	if d <= 0 {
		return 0
	}
	// Units of 125ns so sub-microsecond costs still resolve.
	v := uint64(d) / 125
	if v == 0 {
		return 0
	}
	return 63 - bits.LeadingZeros64(v)
}

// bucketLow returns the lower bound of bucket i.
func bucketLow(i int) sim.Duration {
	return sim.Duration(uint64(125) << uint(i))
}

// Add records one observation.
func (h *Histogram) Add(d sim.Duration) {
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean reports the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Duration(h.count)
}

// Quantile reports an upper bound on the q-quantile (0 < q <= 1) at the
// histogram's bucket resolution (~2x).
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			// Upper edge of the bucket bounds the quantile.
			return bucketLow(i + 1)
		}
	}
	return h.max
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// P50, P99 and P999 are the serving-report quantiles, as Quantile
// shorthands. P999 is the one the bucket layout was sized for: with 64
// power-of-two buckets the extreme tail still lands in a bucket of its
// own instead of saturating a coarse top bin.
func (h *Histogram) P50() sim.Duration  { return h.Quantile(0.50) }
func (h *Histogram) P99() sim.Duration  { return h.Quantile(0.99) }
func (h *Histogram) P999() sim.Duration { return h.Quantile(0.999) }

// Summary renders count/mean/quantiles on one line. It predates the
// serving reports and deliberately omits p999 — golden outputs pin this
// exact rendering; String is the extended form.
func (h *Histogram) Summary() string {
	if h.count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.max)
}

// String renders the full one-line summary including the p999 tail,
// implementing fmt.Stringer for the serving reports.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v p999=%v max=%v",
		h.count, h.Mean(), h.P50(), h.Quantile(0.95), h.P99(), h.P999(), h.max)
}
