package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Every metric says which clock it is on. Virtual-clock metrics are what
// the simulated 1999 cluster would do: a pure function of (code, seed)
// that must repeat bit-exactly, and that a change meant only to speed up
// or simplify the simulator must leave identical. Host-clock metrics are
// what it costs us to compute that: noisy, reported as medians over reps.
const (
	hostClock    = "host"
	virtualClock = "virtual"
)

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Clock  string
}

// endToEnd lists the gated metrics, in BENCHMARK.json's order. Each is
// defined on every workload and never reads 0.
var endToEnd = []metricDef{
	{"wall_ms", "ms", "lower", hostClock},
	{"allocs_per_rep", "count", "lower", hostClock},
	{"alloc_mb_per_rep", "MB", "lower", hostClock},
	{"setup_s", "s", "lower", hostClock},
	{"sim_op_us", "us", "lower", virtualClock},
	{"sim_fault_us", "us", "lower", virtualClock},
}

// cpuLayers are the layers host-clock CPU samples are attributed to:
// package names, plus goruntime (no repo frame on the stack: GC,
// scheduler, goroutine handoff) and other (a repo package not listed).
var cpuLayers = []string{
	"sim", "vm", "core", "fastmsg", "cluster", "dsm", "lrc", "twindiff",
	"apps", "serve", "stats", "root", "goruntime", "other",
}

// perLayer lists the per-layer metrics, in BENCHMARK.json's order. A
// metric that does not apply to a workload (a serve.* row on an
// application, the reliability counters on a clean fabric) reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(clock, unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit, better, clock})
		}
	}
	// Host-clock attribution of the workload, from the traced pass.
	for _, l := range cpuLayers {
		better := "lower"
		if l == "apps" || l == "serve" {
			better = "higher" // the workload's own code: the useful share
		}
		add(hostClock, "share", better, l+".cpu_share")
	}
	add(hostClock, "ns", "lower", "host.calib_ns", "host.ns_per_msg")
	add(hostClock, "ratio", "lower", "trace.overhead_ratio")

	// Virtual-clock ledger of the workload, from Report/Result.
	add(virtualClock, "share", "higher", "apps.sim_compute_share")
	add(virtualClock, "share", "lower", "dsm.sim_read_fault_share", "dsm.sim_write_fault_share",
		"dsm.sim_prefetch_share", "cluster.sim_synch_share")
	add(virtualClock, "count", "lower", "dsm.read_faults", "dsm.write_faults", "dsm.invalidations",
		"dsm.competing_requests")
	add(virtualClock, "us", "lower", "dsm.read_fault_us", "dsm.write_fault_us")
	add(virtualClock, "count", "lower", "fastmsg.msgs")
	add(virtualClock, "B", "lower", "fastmsg.bytes")
	add(virtualClock, "count", "lower", "fastmsg.msgs_per_fault")
	add(virtualClock, "us", "lower", "fastmsg.service_delay_us")
	add(virtualClock, "count", "lower", "cluster.barriers", "cluster.lock_acquisitions",
		"fastmsg.retransmits", "fastmsg.dups_dropped", "fastmsg.out_of_order", "fastmsg.frames_dropped")
	add(virtualClock, "ratio", "higher", "fastmsg.goodput_ratio")
	add(virtualClock, "count", "lower", "core.minipages", "core.views_used")
	// The family-specific user-visible numbers. They are per-layer only
	// because the contract wants every end-to-end metric on every
	// workload; -compare still gates them where they apply.
	add(virtualClock, "ms", "lower", "apps.sim_ms")
	add(virtualClock, "ratio", "higher", "apps.sim_speedup")
	add(virtualClock, "us", "lower", "serve.sim_get_us", "serve.sim_put_us")
	add(virtualClock, "1/s", "higher", "serve.sim_tput_ops", "serve.sim_max_rate_ops")
	add(virtualClock, "us", "lower", "serve.get_p50_us", "serve.get_p99_us", "serve.put_p50_us",
		"serve.put_p99_us")
	add(virtualClock, "ratio", "higher", "serve.tput_over_offered")
	add(virtualClock, "count", "lower", "serve.violations")

	// Kernels, workload-independent.
	for _, k := range kernels {
		add(k.Clock, k.Unit, "lower", k.Name)
	}
	return out
}

// alsoGated are the per-layer metrics -compare applies a bound to, on
// the workloads where they are defined: the user-visible virtual-clock
// numbers that could not be end-to-end metrics. serve.sim_max_rate_ops
// moves in bisection steps, so its bound is one step.
var alsoGated = map[string]float64{
	"apps.sim_ms":            0.01,
	"apps.sim_speedup":       0.01,
	"serve.sim_get_us":       0.01,
	"serve.sim_put_us":       0.01,
	"serve.sim_tput_ops":     0.01,
	"serve.sim_max_rate_ops": maxRateStep - 1,
}

// benchmarkFile is the decoded BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// findRoot returns the directory that holds BENCHMARK.json: the working
// directory (the driver runs from the checkout's root) or its parent
// (go run -C benchmark, go test).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// checkAgainstCode refuses a BENCHMARK.json whose workloads (name and
// size line) or metrics (name, unit, direction, order) are not exactly
// the ones this program measures.
func (bf *benchmarkFile) checkAgainstCode() error {
	if len(bf.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			return fmt.Errorf("BENCHMARK.json workload %d is %q (%q), the harness has %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	check := func(section string, file []fileMetric, code []metricDef, bounded bool) error {
		if len(file) != len(code) {
			return fmt.Errorf("BENCHMARK.json %s lists %d metrics, the harness has %d", section, len(file), len(code))
		}
		for i, m := range code {
			got := file[i]
			if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
				return fmt.Errorf("BENCHMARK.json %s[%d] is %s/%s/%s, the harness has %s/%s/%s",
					section, i, got.Name, got.Unit, got.Better, m.Name, m.Unit, m.Better)
			}
			if bounded != (got.Bound != nil) {
				return fmt.Errorf("BENCHMARK.json %s metric %s: bound present=%v, want %v", section, m.Name, got.Bound != nil, bounded)
			}
		}
		return nil
	}
	if err := check("end_to_end", bf.EndToEnd, endToEnd, true); err != nil {
		return err
	}
	return check("per_layer", bf.PerLayer, perLayer, false)
}

// bound returns the regression bound of an end-to-end metric.
func (bf *benchmarkFile) bound(name string) float64 {
	for _, m := range bf.EndToEnd {
		if m.Name == name && m.Bound != nil {
			return *m.Bound
		}
	}
	return 0
}
