package faultnet

import (
	"testing"

	"millipage/internal/sim"
)

func TestEnabled(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() {
		t.Error("nil plan reports enabled")
	}
	if (&Plan{}).Enabled() {
		t.Error("zero plan reports enabled")
	}
	if (&Plan{Seed: 42, RTOMin: sim.Millisecond}).Enabled() {
		t.Error("seed/RTO-only plan reports enabled: those fields alone inject nothing")
	}
	cases := []Plan{
		{Drop: 0.1},
		{Dup: 0.1},
		{Reorder: 0.1, Jitter: sim.Millisecond},
		{Partitions: []Partition{{A: 1, B: 2, From: 0, Until: 10}}},
		{Crashes: []Crash{{Host: 0, At: 5, RestartAt: 10}}},
	}
	for i, pl := range cases {
		if !pl.Enabled() {
			t.Errorf("case %d: plan %+v reports disabled", i, pl)
		}
	}
}

func TestValidate(t *testing.T) {
	good := Plan{
		Drop: 0.2, Dup: 0.1, Reorder: 0.3, Jitter: 2 * sim.Millisecond,
		Partitions: []Partition{{A: 0b0011, B: 0b1100, From: 10, Until: 20}},
		Crashes:    []Crash{{Host: 3, At: 100, RestartAt: 200}},
	}
	if err := good.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []Plan{
		{Drop: 1.0},
		{Dup: -0.1},
		{Reorder: 0.5}, // no jitter
		{Jitter: -1},
		{Partitions: []Partition{{A: 0, B: 1, From: 0, Until: 10}}},       // empty side
		{Partitions: []Partition{{A: 1, B: 1, From: 0, Until: 10}}},       // overlap
		{Partitions: []Partition{{A: 1, B: 2, From: 10, Until: 10}}},      // never heals
		{Partitions: []Partition{{A: 1, B: 1 << 10, From: 0, Until: 10}}}, // host out of range
		{Crashes: []Crash{{Host: 9, At: 0, RestartAt: 10}}},               // host out of range
		{Crashes: []Crash{{Host: 0, At: 10, RestartAt: 10}}},              // never restarts
	}
	for i, pl := range bad {
		if err := pl.Validate(4); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, pl)
		}
	}
}

// TestInjectorDeterminism: two injectors with the same plan and seed
// draw the same decision stream; a different seed gives a different one.
func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Drop: 0.3, Dup: 0.2, Reorder: 0.4, Jitter: 3 * sim.Millisecond}
	draw := func(seed int64) []int64 {
		in, err := NewInjector(plan, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for i := 0; i < 500; i++ {
			v := int64(0)
			if in.DropFrame() {
				v |= 1
			}
			if in.DupFrame() {
				v |= 2
			}
			out = append(out, v<<32|int64(in.ExtraDelay()))
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different decision streams")
	}
	if !diff {
		t.Error("different seeds produced identical decision streams (suspicious)")
	}
}

// TestInjectorSeedIndependence: the plan seed pins the stream regardless
// of the cluster seed.
func TestInjectorSeedIndependence(t *testing.T) {
	plan := Plan{Seed: 99, Drop: 0.5}
	in1, _ := NewInjector(plan, 2, 1)
	in2, _ := NewInjector(plan, 2, 1234)
	for i := 0; i < 200; i++ {
		if in1.DropFrame() != in2.DropFrame() {
			t.Fatal("plan seed did not pin the decision stream")
		}
	}
}

func TestPartitioned(t *testing.T) {
	plan := Plan{Partitions: []Partition{
		{A: 0b0001, B: 0b0110, From: 100, Until: 200},
		{A: 0b1000, B: 0b0001, From: 150, Until: 250},
	}}
	in, err := NewInjector(plan, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b int
		at   sim.Time
		want bool
	}{
		{0, 1, 99, false},  // before the window
		{0, 1, 100, true},  // window start is inclusive
		{1, 0, 150, true},  // symmetric
		{0, 2, 199, true},  // last instant
		{0, 1, 200, false}, // healed
		{1, 2, 150, false}, // same side
		{3, 0, 160, true},  // second window
		{3, 1, 160, false}, // pair not split by any window
		{0, 3, 249, true},  // second window, reversed
	}
	for _, c := range cases {
		if got := in.Partitioned(c.a, c.b, c.at); got != c.want {
			t.Errorf("Partitioned(%d,%d,%v) = %v, want %v", c.a, c.b, c.at, got, c.want)
		}
	}
}

func TestRTOBounds(t *testing.T) {
	var pl Plan
	lo, hi := pl.RTOBounds()
	if lo != DefaultRTOMin || hi != DefaultRTOMax {
		t.Errorf("zero plan RTO bounds = %v,%v; want defaults", lo, hi)
	}
	pl = Plan{RTOMin: 10 * sim.Millisecond, RTOMax: 5 * sim.Millisecond}
	lo, hi = pl.RTOBounds()
	if hi < lo {
		t.Errorf("RTO bounds inverted: %v > %v", lo, hi)
	}
}
