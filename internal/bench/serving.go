package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"millipage/internal/serve"
	"millipage/internal/sim"
)

// The serving bench: the KV/session-cache scenarios of internal/serve
// measured as a sweep and recorded in BENCH_sim.json next to the
// wall-clock simulator rows. Unlike those, serving rows are virtual-time
// service metrics — per-op-type latency percentiles, throughput and the
// fault-service breakdown — and are exactly reproducible (the
// fingerprint column pins the whole run), so regenerating the file on a
// different machine must not change them.

// ServingPoint is one serving-scenario measurement.
type ServingPoint struct {
	Name     string `json:"name"`
	Protocol string `json:"protocol"`
	Hosts    int    `json:"hosts"`
	Clients  int    `json:"clients"`
	Ops      uint64 `json:"ops"`

	RateOpsPerSec       float64 `json:"rate_ops_per_sec"`
	ThroughputOpsPerSec float64 `json:"throughput_ops_per_sec"`

	// Latency percentiles in microseconds of virtual time, per op type.
	GetP50Us  float64 `json:"get_p50_us"`
	GetP99Us  float64 `json:"get_p99_us"`
	GetP999Us float64 `json:"get_p999_us"`
	PutP50Us  float64 `json:"put_p50_us"`
	PutP99Us  float64 `json:"put_p99_us"`
	PutP999Us float64 `json:"put_p999_us"`

	// Fault-service breakdown: how much of the serving traffic turned
	// into DSM protocol work.
	ReadFaults     uint64  `json:"read_faults"`
	WriteFaults    uint64  `json:"write_faults"`
	Invalidations  uint64  `json:"invalidations"`
	LockAcqs       uint64  `json:"lock_acquisitions"`
	AvgReadFaultUs float64 `json:"avg_read_fault_us"`

	Fingerprint string `json:"fingerprint"` // determinism digest, hex
}

// DefaultServingNames is the BENCH_sim.json serving matrix: the base
// shape under every protocol and the million-client acceptance scenario.
func DefaultServingNames() []string {
	return []string{"base-millipage", "base-ivy", "base-lrc-mw", "million"}
}

// servingPoint flattens a serve.Result into its recorded row.
func servingPoint(res *serve.Result) ServingPoint {
	us := func(d sim.Duration) float64 { return d.Microseconds() }
	return ServingPoint{
		Name:                res.Scenario.Name,
		Protocol:            res.Report.Protocol,
		Hosts:               res.Scenario.Hosts,
		Clients:             res.Scenario.Clients,
		Ops:                 res.Ops,
		RateOpsPerSec:       res.Scenario.Rate,
		ThroughputOpsPerSec: res.Throughput,
		GetP50Us:            us(res.GetLat.P50()),
		GetP99Us:            us(res.GetLat.P99()),
		GetP999Us:           us(res.GetLat.P999()),
		PutP50Us:            us(res.PutLat.P50()),
		PutP99Us:            us(res.PutLat.P99()),
		PutP999Us:           us(res.PutLat.P999()),
		ReadFaults:          res.Report.ReadFaults,
		WriteFaults:         res.Report.WriteFaults,
		Invalidations:       res.Report.Invalidations,
		LockAcqs:            res.Report.LockAcquisitions,
		AvgReadFaultUs:      us(res.Report.AvgReadFaultTime),
		Fingerprint:         fmt.Sprintf("%016x", res.Fingerprint),
	}
}

// RunServing executes the named scenarios as a replica sweep (the
// bench.Workers width applies; results are index-ordered and identical
// at any width) and returns their rows.
func RunServing(names []string) ([]ServingPoint, error) {
	return sweep(len(names), func(i int) (ServingPoint, error) {
		sc, err := serve.Lookup(names[i])
		if err != nil {
			return ServingPoint{}, err
		}
		res, err := serve.Run(sc)
		if err != nil {
			return ServingPoint{}, fmt.Errorf("scenario %s: %w", names[i], err)
		}
		return servingPoint(res), nil
	})
}

// WriteServingTable renders the serving rows as the CLI table.
func WriteServingTable(w io.Writer, pts []ServingPoint) {
	fmt.Fprintln(w, "Serving scenarios (virtual-time latency; open-loop arrivals, queueing included)")
	fmt.Fprintf(w, "%-16s %-10s %6s %9s %9s %11s %24s %24s %9s\n",
		"scenario", "protocol", "hosts", "clients", "ops", "thruput/s", "GET p50/p99/p999 (us)", "PUT p50/p99/p999 (us)", "faults")
	for _, p := range pts {
		fmt.Fprintf(w, "%-16s %-10s %6d %9d %9d %11.0f %8.0f/%7.0f/%7.0f %8.0f/%7.0f/%7.0f %9d\n",
			p.Name, p.Protocol, p.Hosts, p.Clients, p.Ops, p.ThroughputOpsPerSec,
			p.GetP50Us, p.GetP99Us, p.GetP999Us,
			p.PutP50Us, p.PutP99Us, p.PutP999Us,
			p.ReadFaults+p.WriteFaults)
	}
}

// benchReport is the full BENCH_sim.json schema: the wall-clock
// simulator rows and the serving rows, written by different commands —
// each writer preserves the other's section.
type benchReport struct {
	Note        string         `json:"note"`
	Benchmarks  []PerfPoint    `json:"benchmarks"`
	ServingNote string         `json:"serving_note,omitempty"`
	Serving     []ServingPoint `json:"serving,omitempty"`
}

// readBenchReport loads path, returning an empty report when the file
// does not exist yet.
func readBenchReport(path string) (benchReport, error) {
	var r benchReport
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return r, nil
	}
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(blob, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// writeBenchReport writes the report to path.
func writeBenchReport(path string, r benchReport) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	return os.WriteFile(path, blob, 0o644)
}

// WriteServing runs the named scenarios (nil = the default matrix),
// renders the table, and — when path is non-empty — updates the serving
// section of the BENCH_sim.json report at path, preserving the
// wall-clock benchmark section.
func WriteServing(w io.Writer, names []string, path string) error {
	if names == nil {
		names = DefaultServingNames()
	}
	pts, err := RunServing(names)
	if err != nil {
		return err
	}
	WriteServingTable(w, pts)
	if path == "" {
		return nil
	}
	report, err := readBenchReport(path)
	if err != nil {
		return err
	}
	report.ServingNote = "DSM-backed KV/session-cache serving scenarios (internal/serve): virtual-time latency percentiles and throughput under open-loop Zipfian traffic; deterministic per scenario — the fingerprint pins the exact run"
	report.Serving = pts
	if err := writeBenchReport(path, report); err != nil {
		return err
	}
	fmt.Fprintf(w, "(serving rows written to %s)\n", path)
	return nil
}
