package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// virtualReps is the number of distinct seeds a run draws per workload.
// Virtual-clock metrics are means over exactly these reps, so they are a
// pure function of (code, -seed) however long the run measures; later
// reps reuse the same seeds in order, add host-clock samples, and must
// reproduce the earlier rep's outcome bit for bit.
const (
	virtualReps      = 16
	virtualRepsQuick = 2
	setupRepeats     = 5 // set-ups per run; setup_s is their median
	profileHz        = 250
)

type options struct {
	Seed    int64
	Seconds float64 // host seconds of timed reps per workload and pass
	Quick   bool    // test sizes
	Setups  int     // set-ups to time (>= 1)
	rec     *recorder
}

func (o options) reps() int {
	if o.Quick {
		return virtualRepsQuick
	}
	return virtualReps
}

// repSeed derives the seed of a workload's i-th distinct rep from the
// run's seed (splitmix64), so that any two -seed values give unrelated
// rep seeds — neighbouring -seed values would otherwise share all but
// one of them and the spread between runs would read falsely small.
func repSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1) | 1 // positive and non-zero: 0 means "default" to the repo
}

// measurement is what one pass gathers for one workload.
type measurement struct {
	W    *workload
	Base *rep // apps: the 1-host reference run

	SetupS    []float64 // one per set-up, box-speed normalised
	WallMs    []float64 // one per timed rep, box-speed normalised
	RawWallMs []float64 // one per timed rep, as the clock read
	CalibNs   []float64 // one per timed rep: the round trip it was normalised with
	Allocs    []float64
	AllocMB   []float64
	Reps      []*rep // outcome per distinct seed, index = rep number mod reps()

	Ops, Failed uint64
	Note        string // first failed operation
	Mismatch    string // first determinism cross-check failure: a harness failure
	Profile     []byte // gzip'd pprof CPU profile of the timed reps (traced pass)

	spent time.Duration
}

// setup is everything before the first timed rep: the 1-host reference
// run (applications) and one untimed warm-up rep. It is timed as setup_s
// so that work moved out of the reps and into set-up still shows.
func (m *measurement) setup(o options) error {
	defer o.rec.begin(m.W.Name + "/setup").end()
	calib := roundTripNs()
	t0 := time.Now()
	seed := repSeed(o.Seed, 0)
	if m.W.baseline != nil {
		base, err := m.W.baseline(seed, o.Quick)
		if err != nil {
			return err
		}
		m.Base = base
	}
	if _, err := m.W.run(seed, o.Quick, m.Base); err != nil {
		return fmt.Errorf("%s warm-up rep: %w", m.W.Name, err)
	}
	raw := time.Since(t0).Seconds()
	calib = (calib + roundTripNs()) / 2
	m.SetupS = append(m.SetupS, raw*calibRefNs/calib)
	return nil
}

// timedRep runs and verifies rep number i. The collection before it is
// untimed, so a rep pays for the garbage it makes and not for its
// predecessor's.
func (m *measurement) timedRep(o options, i int) {
	begin := time.Now()
	defer func() { m.spent += time.Since(begin) }()
	defer o.rec.begin(m.W.Name + "/rep").end()

	k := i % o.reps()
	runtime.GC()
	calib := roundTripNs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run := o.rec.begin(m.W.Name + "/run")
	t0 := time.Now()
	r, err := m.W.run(repSeed(o.Seed, k), o.Quick, m.Base)
	wall := time.Since(t0)
	run.end()
	runtime.ReadMemStats(&after)
	calib = (calib + roundTripNs()) / 2

	defer o.rec.begin(m.W.Name + "/verify").end()
	m.RawWallMs = append(m.RawWallMs, float64(wall)/1e6)
	m.CalibNs = append(m.CalibNs, calib)
	m.WallMs = append(m.WallMs, float64(wall)/1e6*calibRefNs/calib)
	m.Allocs = append(m.Allocs, float64(after.Mallocs-before.Mallocs))
	m.AllocMB = append(m.AllocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	if err != nil || r == nil {
		// The run itself failed: every operation it was to attempt did.
		n := m.W.ops(o.Quick)
		m.Ops, m.Failed = m.Ops+n, m.Failed+n
		m.note(fmt.Sprintf("rep %d: %v", i, err))
		return
	}
	m.Ops, m.Failed = m.Ops+r.Ops, m.Failed+r.Failed
	if r.Failed > 0 {
		m.note(fmt.Sprintf("rep %d: %s", i, r.Note))
	}
	if k == len(m.Reps) {
		m.Reps = append(m.Reps, r)
	} else if k < len(m.Reps) {
		if d := diffReps(m.Reps[k], r); d != "" && m.Mismatch == "" {
			m.Mismatch = fmt.Sprintf("%s rep %d repeats rep %d's seed but %s", m.W.Name, i, k, d)
		}
	}
}

func (m *measurement) note(s string) {
	if m.Note == "" {
		m.Note = s
	}
}

func (m *measurement) done(o options) bool {
	return len(m.WallMs) >= o.reps() && m.spent.Seconds() >= o.Seconds
}

// diffReps names the first difference between two reps that ran the same
// seed, or returns "" when they are bit-identical.
func diffReps(a, b *rep) string {
	if a.Digest != b.Digest {
		return fmt.Sprintf("digest %016x became %016x", a.Digest, b.Digest)
	}
	if a.Ops != b.Ops || a.Failed != b.Failed {
		return fmt.Sprintf("ops/failed %d/%d became %d/%d", a.Ops, a.Failed, b.Ops, b.Failed)
	}
	return diffVirt(a.Virt, b.Virt)
}

// diffVirt names the first virtual-clock metric, in sorted order, whose
// value differs between two maps.
func diffVirt(a, b map[string]float64) string {
	names := make([]string, 0, len(a)+len(b))
	for n := range a {
		names = append(names, n)
	}
	for n := range b {
		if _, ok := a[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if x, y := a[n], b[n]; math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Sprintf("%s %v became %v", n, x, y)
		}
	}
	return ""
}

// virt averages the virtual-clock metrics over the distinct-seed reps, in
// rep order so the float sums repeat exactly.
func (m *measurement) virt() map[string]float64 {
	out := map[string]float64{}
	if len(m.Reps) == 0 {
		return out
	}
	for n := range m.Reps[0].Virt {
		var sum float64
		for _, r := range m.Reps {
			sum += r.Virt[n]
		}
		out[n] = sum / float64(len(m.Reps))
	}
	return out
}

// measure runs one pass over the workloads: set-up, then timed reps until
// every workload has used its seconds and drawn all its seeds. The
// untraced pass interleaves the workloads' reps round-robin, so a slow
// minute on the box is shared instead of landing on one workload. The
// traced pass runs them one after the other, each under its own CPU
// profile, with a span around every step.
func measure(ws []*workload, o options, traced bool) ([]*measurement, error) {
	ms := make([]*measurement, len(ws))
	for i, w := range ws {
		ms[i] = &measurement{W: w}
		for s := 0; s < o.Setups; s++ {
			if err := ms[i].setup(o); err != nil {
				return nil, err
			}
		}
	}
	if traced {
		for _, m := range ms {
			var buf bytes.Buffer
			// pprof.StartCPUProfile always asks for 100 Hz. Setting the
			// rate first makes its own request fail (the runtime prints
			// one line saying so) and leaves ours in force.
			runtime.SetCPUProfileRate(profileHz)
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
			for !m.done(o) {
				m.timedRep(o, len(m.WallMs))
			}
			pprof.StopCPUProfile()
			m.Profile = buf.Bytes()
		}
		return ms, nil
	}
	for active := true; active; {
		active = false
		for _, m := range ms {
			if !m.done(o) {
				active = true
				m.timedRep(o, len(m.WallMs))
			}
		}
	}
	return ms, nil
}

// The box this runs on drifts: over a minute its effective speed moves by
// 10 to 30 % (a shared 2-vCPU VM; neither steal time nor frequency shows
// it), far more than any bound worth having. So host times are normalised
// to the box's speed at that moment: a calibration runs right before and
// right after every rep and every set-up, and the time is scaled by
// calibRefNs over the calibration's mean. The calibration is a goroutine
// round trip over unbuffered channels — what the simulator itself does
// most — and none of the repo's code, so that no change to the repo can
// move it. Of the calibrations tried (integer loop, 16 MB strided walk,
// round trip, sums and geometric means of them) it was the one that
// tracked rep wall time in every state of the box: the spread of 10 s
// window medians fell from 7-17 % raw to about 3 %.
const (
	calibRoundTrips = 10_000
	// calibRefNs is the round trip on the box the benchmark was defined
	// on, so normalised times read as that box's milliseconds.
	calibRefNs = 350.0
)

// roundTripNs times calibRoundTrips goroutine round trips (about 3.5 ms)
// and returns the nanoseconds one takes. Its goroutine has ended when it
// returns.
func roundTripNs() float64 {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	t0 := time.Now()
	for i := 0; i < calibRoundTrips; i++ {
		ping <- struct{}{}
		<-pong
	}
	d := time.Since(t0)
	close(ping)
	<-pong
	return float64(d) / calibRoundTrips
}

// quartiles returns the first quartile, median and third quartile of v
// the way Python's statistics.quantiles(v, n=4) does (exclusive method),
// which is what the driver computes spreads with.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // quantile i of 4
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, med, _ := quartiles(v)
	return med
}
