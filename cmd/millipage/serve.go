package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"millipage/internal/bench"
	"millipage/internal/serve"
)

// runServe drives the KV/session-cache serving harness (internal/serve):
// named scenarios over the DSM store, with per-op-type latency
// percentiles, throughput, the fault-service breakdown and a determinism
// fingerprint. -check runs the scenario twice and fails on any
// fingerprint difference; -all sweeps the BENCH_sim.json serving matrix.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	scenario := fs.String("scenario", "million", "scenario name (see -list)")
	list := fs.Bool("list", false, "list the registered scenarios and exit")
	check := fs.Bool("check", false, "run the scenario twice and verify the fingerprints match")
	all := fs.Bool("all", false, "run the default serving matrix and record it (see -out)")
	out := fs.String("out", "BENCH_sim.json", "with -all: serving-rows report path (empty = table only)")
	protocol := fs.String("protocol", "", "override the scenario's coherence protocol (millipage, ivy, lrc, lrc-mw)")
	hosts := fs.Int("hosts", 0, "override the cluster size")
	clients := fs.Int("clients", 0, "override the simulated client count")
	rate := fs.Float64("rate", 0, "override the offered load (ops/sec of virtual time)")
	ops := fs.Int("ops", 0, "override the operation count")
	seed := fs.Int64("seed", 0, "override the workload seed")
	faults := fs.String("faults", "", "override the fault preset (clean, drop-heavy, reorder-heavy, partition-heal, crash-restart)")
	fs.Parse(args)

	if *list {
		fmt.Println("registered serving scenarios:")
		for _, name := range serve.Names() {
			sc, err := serve.Lookup(name)
			if err != nil {
				return err
			}
			faultCol := sc.Faults
			if faultCol == "" {
				faultCol = "clean"
			}
			fmt.Printf("  %-16s %-10s hosts=%-3d keys=%-6d clients=%-8d rate=%-7.0f ops=%-7d read=%.2f zipf=%.2f faults=%s\n",
				sc.Name, sc.Protocol, sc.Hosts, sc.Keys, sc.Clients, sc.Rate, sc.Ops, sc.ReadFrac, sc.ZipfS, faultCol)
		}
		return nil
	}

	if *all {
		return bench.WriteServing(os.Stdout, nil, *out)
	}

	sc, err := serve.Lookup(*scenario)
	if err != nil {
		return fmt.Errorf("%w (try -list)", err)
	}
	if *protocol != "" {
		sc.Protocol = *protocol
	}
	if *hosts != 0 {
		sc.Hosts = *hosts
	}
	if *clients != 0 {
		sc.Clients = *clients
	}
	if *rate != 0 {
		sc.Rate = *rate
	}
	if *ops != 0 {
		sc.Ops = *ops
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *faults != "" {
		sc.Faults = *faults
	}

	fmt.Printf("serving scenario %s: %s on %d hosts, %d clients, %.0f ops/s offered ...\n",
		sc.Name, sc.Protocol, sc.Hosts, sc.Clients, sc.Rate)
	res, err := serve.Run(sc)
	if err != nil {
		return err
	}
	fmt.Println(strings.TrimRight(res.String(), "\n"))
	if *check {
		res2, err := serve.Run(sc)
		if err != nil {
			return err
		}
		if res.Fingerprint != res2.Fingerprint {
			return fmt.Errorf("determinism check failed: fingerprint %016x vs %016x across identical runs",
				res.Fingerprint, res2.Fingerprint)
		}
		fmt.Printf("determinism check: two runs, identical fingerprint %016x\n", res.Fingerprint)
	}
	return nil
}
