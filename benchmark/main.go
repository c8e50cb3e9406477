// Command benchmark is the repo's two-clock benchmark: seven fixed-size
// workloads over the application suite and the serving subsystem, each
// measured on the host clock (what the simulation costs us) and on the
// virtual clock (what the simulated 1999 cluster would do), with a
// traced pass that attributes both to layers. See README.md.
//
// The driver's contract (BENCHMARK.json) is one workload per process:
//
//	benchmark --workload sor8 --seed 7 --seconds 10 --trace 0
//
// which prints a report and, as the last line of standard output, one
// JSON object with the end-to-end (--trace 0) or per-layer (--trace 1)
// metrics. Without --workload it runs all seven in one process, reps
// interleaved, and writes a results file that -compare judges against
// another with the bounds of BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// stat is one end-to-end metric of one workload as a results file keeps
// it: the value and, for host-clock metrics (a virtual-clock value is
// exact and has none), the spread of the samples behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock"`
	N     int     `json:"n"` // samples the value summarises
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	// Medians of the first and second half of the samples: when they
	// differ by more than the metric's bound the box drifted during the
	// run and -compare calls the metric unresolved.
	FirstHalf  float64 `json:"first_half,omitempty"`
	SecondHalf float64 `json:"second_half,omitempty"`
}

func hostStat(m metricDef, samples []float64) stat {
	q1, med, q3 := quartiles(samples)
	h := len(samples) / 2
	return stat{Value: med, Unit: m.Unit, Clock: m.Clock, N: len(samples), Q1: q1, Q3: q3,
		FirstHalf: median(samples[:h]), SecondHalf: median(samples[h:])}
}

type workloadResult struct {
	Name     string             `json:"name"`
	Reps     int                `json:"reps"`
	Ops      uint64             `json:"ops"`
	Failed   uint64             `json:"failed"`
	Note     string             `json:"note,omitempty"`
	RawWall  float64            `json:"wall_raw_ms"`   // median rep wall time as the clock read
	CalibNs  float64            `json:"host.calib_ns"` // median round trip the reps were normalised with
	EndToEnd map[string]stat    `json:"end_to_end"`
	Ledger   map[string]float64 `json:"ledger"`           // every virtual-clock metric, end-to-end and per-layer
	Layers   map[string]float64 `json:"layers,omitempty"` // host-clock per-layer metrics (traced pass)
	Samples  int64              `json:"profile_samples,omitempty"`
}

type header struct {
	Commit      string  `json:"commit"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Quick       bool    `json:"quick,omitempty"`
	VirtualReps int     `json:"virtual_reps"`
	Nproc       int     `json:"nproc"`
	Gomaxprocs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	CalibNs     float64 `json:"host.calib_ns"` // median goroutine round trip over the untraced pass
	IntNs       float64 `json:"host.int_ns"`   // the fixed integer loop, at start
	PassWallS   float64 `json:"pass_wall_s"`
	TracedWallS float64 `json:"traced_pass_wall_s,omitempty"`
}

type resultsFile struct {
	Header    header             `json:"header"`
	Workloads []*workloadResult  `json:"workloads"`
	Kernels   map[string]float64 `json:"kernels,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 1, "run seed; every rep's inputs derive from it")
		seconds = fs.Float64("seconds", 0, "host seconds of timed reps per workload (0 = BENCHMARK.json's run_seconds)")
		trace   = fs.Int("trace", 0, "1 = add the traced pass and report per-layer metrics")
		quick   = fs.Bool("quick", false, "test sizes: tiny inputs, two seeds per workload, one set-up")
		out     = fs.String("out", "", "directory for results.json (all-workload runs) and trace.json (default benchmark/out)")
		compare = fs.Bool("compare", false, "compare two results files: -compare BASE.json NEW.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return fail(err)
	}
	if err := bf.checkAgainstCode(); err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two results files, got %d", fs.NArg()))
		}
		return compareFiles(stdout, bf, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *seconds <= 0 {
		*seconds = float64(bf.RunSeconds)
	}
	ws := workloads
	if *name != "all" {
		w := lookupWorkload(*name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		ws = []*workload{w}
	}
	if *out == "" {
		*out = filepath.Join(root, "benchmark", "out")
	}

	b := &bench{ws: ws, single: *name != "all", trace: *trace != 0, stdout: stdout,
		o: options{Seed: *seed, Seconds: *seconds, Quick: *quick}}
	if err := b.measure(root); err != nil {
		return fail(err)
	}
	b.print()
	if b.rec != nil {
		if err := b.rec.write(filepath.Join(*out, "trace.json")); err != nil {
			return fail(err)
		}
	}
	if b.single {
		// The driver's result line.
		line, err := json.Marshal(b.driverResult())
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	} else {
		raw, err := json.MarshalIndent(b.res, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(err)
		}
		path := filepath.Join(*out, "results.json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "results written to %s\n", path)
	}
	// A single-workload run reports correctness in its result line, as
	// the driver's contract has it; an all-workload run by exit code.
	if !b.single && !b.correct() {
		return 1
	}
	return 0
}

// bench is one invocation: its passes and what they found.
type bench struct {
	ws     []*workload
	single bool // one workload, the driver's contract
	trace  bool
	o      options
	stdout io.Writer

	rec      *recorder
	res      resultsFile
	mismatch []string // harness failures: the simulation did not repeat
}

func (b *bench) measure(root string) error {
	o := b.o
	intNs, err := intLoop(o.Quick)
	if err != nil {
		return err
	}
	b.res.Header = header{
		Commit: commit(root), Seed: o.Seed, Seconds: o.Seconds, Quick: o.Quick, VirtualReps: o.reps(),
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), IntNs: intNs,
	}

	// The untraced pass: every end-to-end number comes from here. A
	// single-workload traced run splits its seconds between the passes.
	untraced := o
	untraced.Setups = setupRepeats
	if o.Quick {
		untraced.Setups = 1
	}
	if b.single && b.trace {
		untraced.Seconds, untraced.Setups = o.Seconds/2, 1
	}
	t0 := time.Now()
	plain, err := measure(b.ws, untraced, false)
	if err != nil {
		return err
	}
	b.res.Header.PassWallS = time.Since(t0).Seconds()
	var calibs []float64
	for _, m := range plain {
		b.res.Workloads = append(b.res.Workloads, b.result(m))
		calibs = append(calibs, m.CalibNs...)
	}
	b.res.Header.CalibNs = median(calibs)
	if !b.trace {
		return nil
	}
	t0 = time.Now()
	err = b.tracedPass(plain)
	b.res.Header.TracedWallS = time.Since(t0).Seconds()
	return err
}

// tracedPass runs the kernels, then each workload under a CPU profile
// and the span recorder, and fills in the per-layer numbers. It draws the
// same seeds as the untraced pass, so the simulation must do exactly
// what it did there.
func (b *bench) tracedPass(plain []*measurement) error {
	o := b.o
	b.rec = newRecorder()
	var err error
	if b.res.Kernels, err = runKernels(b.rec, o.Quick); err != nil {
		return err
	}
	traced := o
	traced.Setups, traced.rec = 1, b.rec
	traced.Seconds = o.Seconds / 4
	if b.single {
		traced.Seconds = o.Seconds / 2
	}
	profiled, err := measure(b.ws, traced, true)
	if err != nil {
		return err
	}
	for i, m := range profiled {
		wr := b.res.Workloads[i]
		wr.Ops, wr.Failed = wr.Ops+m.Ops, wr.Failed+m.Failed
		if wr.Note == "" {
			wr.Note = m.Note
		}
		if m.Mismatch != "" {
			b.mismatch = append(b.mismatch, m.Mismatch)
		}
		for k, r := range m.Reps {
			if k >= len(plain[i].Reps) {
				break
			}
			if d := diffReps(plain[i].Reps[k], r); d != "" {
				b.mismatch = append(b.mismatch, fmt.Sprintf("%s rep %d traced differs from untraced: %s", m.W.Name, k, d))
				break
			}
		}

		samples, err := parseProfile(m.Profile)
		if err != nil {
			return fmt.Errorf("%s: %w", m.W.Name, err)
		}
		shares, n := layerShares(samples)
		wr.Samples = n
		wr.Layers = map[string]float64{"host.calib_ns": wr.CalibNs}
		for l, s := range shares {
			wr.Layers[l+".cpu_share"] = s
		}
		wall := wr.EndToEnd["wall_ms"].Value
		if msgs := wr.Ledger["fastmsg.msgs"]; msgs > 0 {
			// Host time per simulated event, by the one event count the
			// layers make public.
			wr.Layers["host.ns_per_msg"] = wall * 1e6 / msgs
		}
		if wr.RawWall > 0 {
			// Raw wall times: the profiler's signals slow the calibration's
			// round trips by about a tenth, so normalised traced times
			// read falsely fast.
			wr.Layers["trace.overhead_ratio"] = median(m.RawWallMs) / wr.RawWall
		}
		if m.W.maxRate != nil {
			s := b.rec.begin(m.W.Name + "/max_rate")
			wr.Ledger["serve.sim_max_rate_ops"] = m.W.maxSustainedRate(
				[2]int64{repSeed(o.Seed, 0), repSeed(o.Seed, 1)}, o.Quick)
			s.end()
		}
	}
	return nil
}

// result condenses one workload's untraced measurement.
func (b *bench) result(m *measurement) *workloadResult {
	if m.Mismatch != "" {
		b.mismatch = append(b.mismatch, m.Mismatch)
	}
	virt := m.virt()
	wr := &workloadResult{Name: m.W.Name, Reps: len(m.WallMs), Ops: m.Ops, Failed: m.Failed, Note: m.Note,
		RawWall: median(m.RawWallMs), CalibNs: median(m.CalibNs), EndToEnd: map[string]stat{}, Ledger: virt}
	host := map[string][]float64{
		"wall_ms": m.WallMs, "allocs_per_rep": m.Allocs, "alloc_mb_per_rep": m.AllocMB, "setup_s": m.SetupS,
	}
	for _, d := range endToEnd {
		if d.Clock == hostClock {
			wr.EndToEnd[d.Name] = hostStat(d, host[d.Name])
		} else {
			wr.EndToEnd[d.Name] = stat{Value: virt[d.Name], Unit: d.Unit, Clock: d.Clock, N: len(m.Reps)}
		}
	}
	return wr
}

func (b *bench) correct() bool {
	if len(b.mismatch) > 0 {
		return false
	}
	for _, wr := range b.res.Workloads {
		if wr.Failed > 0 {
			return false
		}
	}
	return true
}

// driverResult is the single-workload result line: the end-to-end
// metrics untraced, the per-layer metrics traced; a per-layer metric
// that does not apply to the workload reads 0.
func (b *bench) driverResult() map[string]any {
	wr := b.res.Workloads[0]
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if b.trace {
		for _, d := range perLayer {
			// Each name lives in exactly one of the three maps.
			v, ok := wr.Ledger[d.Name]
			if !ok {
				if v, ok = wr.Layers[d.Name]; !ok {
					v = b.res.Kernels[d.Name]
				}
			}
			metrics[d.Name] = mv{v, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = mv{wr.EndToEnd[d.Name].Value, d.Unit}
		}
	}
	return map[string]any{"correct": b.correct(), "attempted": wr.Ops, "failed": wr.Failed, "metrics": metrics}
}

func (b *bench) print() {
	w := b.stdout
	h := b.res.Header
	fmt.Fprintf(w, "commit %s  seed %d  seconds %g  distinct seeds/workload %d  nproc %d  GOMAXPROCS %d  %s\n",
		h.Commit, h.Seed, h.Seconds, h.VirtualReps, h.Nproc, h.Gomaxprocs, h.GoVersion)
	fmt.Fprintf(w, "cpu %q  host.calib_ns %.1f  host.int_ns %.3f  untraced pass %.1f s", h.CPUModel, h.CalibNs, h.IntNs, h.PassWallS)
	if b.trace {
		fmt.Fprintf(w, "  traced pass %.1f s", h.TracedWallS)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "\nend-to-end (host clock: median [q1..q3] over n reps, times normalised to a %g ns goroutine round trip;\n"+
		"virtual clock: mean over the distinct seeds, exact)\n", calibRefNs)
	for _, wr := range b.res.Workloads {
		fmt.Fprintf(w, "%s: %d reps, %d ops, %d failed (failed_share %g); raw wall %.1f ms at host.calib_ns %.1f\n", wr.Name, wr.Reps,
			wr.Ops, wr.Failed, float64(wr.Failed)/float64(max(wr.Ops, 1)), wr.RawWall, wr.CalibNs)
		if wr.Note != "" {
			fmt.Fprintf(w, "  first failure: %s\n", wr.Note)
		}
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			if d.Clock == hostClock {
				fmt.Fprintf(w, "  %-18s %14.4f %-5s %-7s [%.4f .. %.4f] n=%d\n", d.Name, s.Value, d.Unit, d.Clock, s.Q1, s.Q3, s.N)
			} else {
				fmt.Fprintf(w, "  %-18s %14.4f %-5s %-7s n=%d\n", d.Name, s.Value, d.Unit, d.Clock, s.N)
			}
		}
	}
	for _, msg := range b.mismatch {
		fmt.Fprintf(w, "HARNESS FAILURE: %s\n", msg)
	}
	if !b.trace {
		return
	}

	fmt.Fprintln(w, "\nkernels (workload-independent; virtual-clock rows give the paper's value and the error against it)")
	for _, k := range kernels {
		v := b.res.Kernels[k.Name]
		fmt.Fprintf(w, "  %-28s %14.4f %-5s %-7s", k.Name, v, k.Unit, k.Clock)
		switch {
		case k.PaperHi > 0:
			fmt.Fprintf(w, " paper %g-%g", k.Paper, k.PaperHi)
			if v < k.Paper || v > k.PaperHi {
				near := k.Paper
				if v > k.PaperHi {
					near = k.PaperHi
				}
				fmt.Fprintf(w, " (%+.1f%% outside)", 100*(v-near)/near)
			} else {
				fmt.Fprint(w, " (within)")
			}
		case k.Paper > 0:
			fmt.Fprintf(w, " paper %g (%+.1f%%)", k.Paper, 100*(v-k.Paper)/k.Paper)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  application speedups have no reference in the repo: unvalidated")

	for _, wr := range b.res.Workloads {
		fmt.Fprintf(w, "\n%s: host-clock layers (%d samples at %d Hz; first repo frame from the leaf)\n", wr.Name, wr.Samples, profileHz)
		var sum float64
		for _, l := range cpuLayers {
			s := wr.Layers[l+".cpu_share"]
			sum += s
			fmt.Fprintf(w, "  %-10s %6.1f%% %s\n", l, 100*s, strings.Repeat("#", int(50*s+0.5)))
		}
		fmt.Fprintf(w, "  %-10s %6.1f%%   host.ns_per_msg %.1f   trace.overhead_ratio %.3f\n", "sum", 100*sum,
			wr.Layers["host.ns_per_msg"], wr.Layers["trace.overhead_ratio"])
		fmt.Fprintf(w, "%s: virtual-clock ledger (means per rep)\n", wr.Name)
		l := wr.Ledger
		shares := l["apps.sim_compute_share"] + l["dsm.sim_read_fault_share"] + l["dsm.sim_write_fault_share"] +
			l["dsm.sim_prefetch_share"] + l["cluster.sim_synch_share"]
		fmt.Fprintf(w, "  thread time: compute %.3f  read fault %.3f  write fault %.3f  prefetch %.3f  synch %.3f  (sum %.3f)\n",
			l["apps.sim_compute_share"], l["dsm.sim_read_fault_share"], l["dsm.sim_write_fault_share"],
			l["dsm.sim_prefetch_share"], l["cluster.sim_synch_share"], shares)
		names := make([]string, 0, len(l))
		for n := range l {
			if !strings.HasSuffix(n, "_share") {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-28s %16.4f\n", n, l[n])
		}
	}
}

// commit reads the checked-out commit from .git without starting a
// process; a checkout that is not a git repository reads "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		raw, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(raw))
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
