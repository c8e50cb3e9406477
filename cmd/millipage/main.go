// Command millipage regenerates every table and figure of the paper's
// evaluation (Section 4) on the simulated testbed.
//
// Usage:
//
//	millipage costs                  Table 1 + Section 4.2 microbenchmarks
//	millipage mvoverhead [-fast]     Figure 5 (MultiView overhead sweep)
//	millipage apps [flags]           Figure 6 + Table 2 (application suite)
//	millipage chunking [flags]       Figure 7 (WATER chunking study)
//	millipage ablation [flags]       Section 5 / 3.5 ablation studies
//	millipage managerload [flags]    central vs home-based directory management
//	millipage chaos [flags]          seeded fault injection + convergence check
//	millipage explore [flags]        schedule-exploration model checking
//	millipage serve [flags]          DSM-backed KV serving scenarios
//	millipage bench [-out F]         end-to-end runs in counts (no clock)
//	millipage all [flags]            everything above
//
// Common flags: -scale (problem scale, 1.0 = the paper's data sets),
// -seed. The full-scale runs take a few minutes; -scale 0.1 gives a quick
// qualitative pass.
//
// Global flags (before the subcommand):
//
//	millipage -cpuprofile cpu.out -memprofile mem.out apps -scale 0.1
//	millipage -workers 1 chunking
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"millipage/internal/bench"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

func main() {
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile to `file` at exit")
	workers := flag.Int("workers", bench.Workers(), "parallel replica-sweep width (1 = sequential)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	bench.SetWorkers(*workers)
	cmd, args := flag.Arg(0), flag.Args()[1:]

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "millipage:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "millipage:", err)
			os.Exit(1)
		}
	}

	err := dispatch(cmd, args)

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "millipage:", ferr)
			os.Exit(1)
		}
		runtime.GC() // flush dead objects so the profile shows live state
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			fmt.Fprintln(os.Stderr, "millipage:", ferr)
			os.Exit(1)
		}
		f.Close()
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "millipage:", err)
		os.Exit(1)
	}
}

func dispatch(cmd string, args []string) error {
	switch cmd {
	case "costs":
		return runCosts()
	case "mvoverhead":
		return runMVOverhead(args)
	case "apps":
		return runApps(args)
	case "chunking":
		return runChunking(args)
	case "ablation":
		return runAblation(args)
	case "managerload":
		return runManagerLoad(args)
	case "chaos":
		return runChaos(args)
	case "explore":
		return runExplore(args)
	case "serve":
		return runServe(args)
	case "bench":
		return runBench(args)
	case "all":
		return runAll(args)
	default:
		usage()
		os.Exit(2)
		return nil
	}
}

// usageText is the complete subcommand reference. Every dispatch case
// must appear here with its protocol flag spelled out where it takes
// one — cmd/millipage's usage golden test walks dispatch and this
// text to keep the two in lockstep.
const usageText = `usage: millipage [global flags] <costs|mvoverhead|apps|chunking|ablation|managerload|chaos|explore|serve|bench|all> [flags]
  costs                Table 1 and the Section 4.2 microbenchmarks
  mvoverhead [-fast]   Figure 5: MultiView overhead vs number of views
  apps [flags]         Figure 6 and Table 2: the five-application suite;
                       figures under the home-based placement and the
                       paper's central manager (ivy: its preset's alone)
                         -scale F      problem scale (default 1.0 = paper)
                         -hosts L      comma list of host counts (default 1,2,4,8)
                         -only A       run a single application
                         -protocol P   coherence protocol: millipage, ivy or lrc-mw
                         -seed N
  chunking [flags]     Figure 7: chunking in WATER under both directory
                       placements (-scale, -seed)
  ablation [flags]     Section 5 / 3.5 ablations: LRC over chunking,
                       SC-Millipage vs multi-writer LRC (twin/diff costs),
                       NT timers vs ideal timers (-scale, -seed)
  managerload [flags]  central vs home-based directory management on a
                       write-heavy workload (-hosts, -vars, -rounds, -seed)
  chaos [flags]        seeded fault injection: run the write-heavy workload
                       while the wire drops, duplicates, reorders, partitions
                       and crashes hosts, then check the results converged
                         -protocol P   millipage, ivy or lrc-mw
                         -hosts/-vars/-rounds/-seed   workload size
                         -drop/-dup/-reorder F        per-frame probabilities
                         -jitter D     reorder hold-back bound (e.g. 2ms)
                         -partition from,until   cut first half from second half
                         -crash host,at,restart  schedule a host crash/restart
  explore [flags]      schedule-exploration model checking: perturb the order
                       of same-timestamp events over many seeded schedules,
                       assert the SW/MR, consistency and agreement oracles
                       after each, shrink any failing schedule to a minimal
                       replayable trace
                         -protocol P   millipage, ivy or lrc-mw
                         -workload W   swmr, mp, dekker, drf, merge, drf-nolock
                         -faults F     fault preset (see -h), default clean
                         -schedules N  schedules to explore (default 200)
                         -seed/-exploreseed   exploration knobs
                         -artifacts D  write shrunk repro traces into D
                         -replay F     re-execute a saved .mchk trace
  serve [flags]        DSM-backed KV/session-cache serving scenarios: open-loop
                       Zipfian traffic over minipage-resident buckets, with
                       per-op-type latency percentiles, throughput, the
                       fault-service breakdown and a determinism fingerprint
                         -scenario S   scenario name (default million; see -list)
                         -list         list the registered scenarios
                         -check        run twice, fail on fingerprint mismatch
                         -all          run the default matrix, record serving rows
                         -out F        with -all: report path (default BENCH_sim.json)
                         -protocol P   millipage, ivy or lrc-mw
                         -hosts/-clients/-rate/-ops/-seed/-faults   overrides
  bench [-out F]       what each end-to-end run costs in counts, no clock:
                       allocations, bytes and event-engine work per run
                       (default -out BENCH_sim.json; wall clock is
                       benchmark/run.sh's)
  all [flags]          everything (-scale, -fast, -seed)

global flags (before the subcommand):
  -cpuprofile F        write a CPU profile of the run to F
  -memprofile F        write a heap profile at exit to F
  -workers N           parallel replica-sweep width (default GOMAXPROCS)`

func usage() {
	fmt.Fprintln(os.Stderr, usageText)
}

func runCosts() error {
	bench.Table1(os.Stdout)
	fmt.Println()
	if err := bench.FetchCosts(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := bench.SynchCosts(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	bench.DiffCosts(os.Stdout)
	return nil
}

func runMVOverhead(args []string) error {
	fs := flag.NewFlagSet("mvoverhead", flag.ExitOnError)
	fast := fs.Bool("fast", false, "coarser sampling for a quick pass")
	fs.Parse(args)
	cfg := bench.DefaultFigure5()
	cfg.Fast = *fast
	pts := bench.Figure5(cfg)
	bench.WriteFigure5(os.Stdout, cfg, pts)
	fmt.Println()
	bench.SmallViewOverheads(os.Stdout)
	return nil
}

func parseHosts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad host count %q (want a comma list of positive integers)", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func runApps(args []string) error {
	fs := flag.NewFlagSet("apps", flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "problem scale (1.0 = the paper's data sets)")
	hosts := fs.String("hosts", "1,2,4,8", "comma-separated host counts")
	only := fs.String("only", "", "run a single application (SOR, IS, WATER, LU, TSP)")
	seed := fs.Int64("seed", 1, "simulation seed")
	protocol := fs.String("protocol", "millipage", "coherence protocol (millipage, ivy, lrc-mw)")
	fs.Parse(args)

	cfg := bench.DefaultFigure6()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Only = *only
	cfg.Protocol = *protocol
	hs, err := parseHosts(*hosts)
	if err != nil {
		return err
	}
	cfg.Hosts = hs
	if cfg, err = cfg.Checked(); err != nil {
		return err
	}

	var runs []bench.AppRun
	for _, pl := range bench.Placements(cfg.Protocol) {
		cfg.CentralManagement = pl.Central
		fmt.Printf("running application suite under %s at scale %.2f on hosts %v ...\n", placed(*protocol, pl), cfg.Scale, hs)
		if runs, err = bench.Figure6(cfg, os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		bench.WriteFigure6(os.Stdout, cfg, runs)
		fmt.Println()
	}
	bench.Table2(os.Stdout, cfg, runs)
	return nil
}

// placed names a protocol under a placement of its minipage homes.
func placed(protocol string, pl bench.Placement) string {
	if pl.Name == "" {
		return protocol
	}
	return protocol + " (" + pl.Name + " placement)"
}

func runChunking(args []string) error {
	fs := flag.NewFlagSet("chunking", flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "problem scale")
	seed := fs.Int64("seed", 1, "simulation seed")
	fs.Parse(args)

	cfg := bench.DefaultFigure7()
	cfg.Scale = *scale
	cfg.Seed = *seed
	for i, pl := range bench.Placements("millipage") {
		if i > 0 {
			fmt.Println()
		}
		cfg.CentralManagement = pl.Central
		fmt.Printf("running WATER chunking study under %s at scale %.2f ...\n", placed("millipage", pl), *scale)
		pts, err := bench.Figure7(cfg, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Println()
		bench.WriteFigure7(os.Stdout, cfg, pts)
	}
	return nil
}

func runAblation(args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ExitOnError)
	scale := fs.Float64("scale", 0.25, "problem scale for the timer ablation")
	seed := fs.Int64("seed", 1, "simulation seed")
	fs.Parse(args)
	if err := bench.Baseline(os.Stdout, 4, 32, 8); err != nil {
		return err
	}
	fmt.Println()
	if err := bench.PageGrainComparison(os.Stdout, 1.0, *seed); err != nil {
		return err
	}
	fmt.Println()
	if err := bench.AblationLRC(os.Stdout, 4, 256, 6, 8); err != nil {
		return err
	}
	fmt.Println()
	if err := bench.MWCompare(os.Stdout, *scale, *seed); err != nil {
		return err
	}
	fmt.Println()
	if err := bench.AblationComposedViews(os.Stdout, 1.0, *seed); err != nil {
		return err
	}
	fmt.Println()
	return bench.AblationTimers(os.Stdout, *scale, *seed)
}

func runManagerLoad(args []string) error {
	fs := flag.NewFlagSet("managerload", flag.ExitOnError)
	cfg := bench.DefaultManagerLoad()
	hosts := fs.Int("hosts", cfg.Hosts, "cluster size")
	vars := fs.Int("vars", cfg.Vars, "shared variables")
	rounds := fs.Int("rounds", cfg.Rounds, "write-heavy rounds")
	seed := fs.Int64("seed", cfg.Seed, "simulation seed")
	fs.Parse(args)
	cfg.Hosts, cfg.Vars, cfg.Rounds, cfg.Seed = *hosts, *vars, *rounds, *seed
	return bench.ManagerLoadCompare(os.Stdout, cfg)
}

// parseSimDuration reads a human duration ("2ms", "500us") as virtual
// time.
func parseSimDuration(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return sim.Duration(d.Nanoseconds()), nil
}

// halves splits an n-host cluster into first-half / second-half bitmasks
// for the -partition flag.
func halves(n int) (a, b uint64) {
	for i := 0; i < n; i++ {
		if i < n/2 {
			a |= 1 << uint(i)
		} else {
			b |= 1 << uint(i)
		}
	}
	return a, b
}

func runChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	cfg := bench.DefaultChaos()
	protocol := fs.String("protocol", cfg.Protocol, "coherence protocol (millipage, ivy, lrc-mw)")
	hosts := fs.Int("hosts", cfg.Hosts, "cluster size")
	vars := fs.Int("vars", cfg.Vars, "shared variables")
	rounds := fs.Int("rounds", cfg.Rounds, "write-heavy rounds")
	seed := fs.Int64("seed", cfg.Seed, "simulation seed (also seeds the fault injector)")
	drop := fs.Float64("drop", cfg.Plan.Drop, "per-frame drop probability [0,1)")
	dup := fs.Float64("dup", cfg.Plan.Dup, "per-frame duplication probability [0,1)")
	reorder := fs.Float64("reorder", cfg.Plan.Reorder, "per-frame reorder probability [0,1)")
	jitter := fs.String("jitter", cfg.Plan.Jitter.String(), "reorder hold-back bound (virtual time)")
	partition := fs.String("partition", "", "cut first half from second half: from,until (e.g. 2ms,12ms)")
	crash := fs.String("crash", "", "crash schedule: host,at,restart (e.g. 1,2ms,8ms)")
	fs.Parse(args)

	cfg.Protocol = *protocol
	cfg.Hosts, cfg.Vars, cfg.Rounds, cfg.Seed = *hosts, *vars, *rounds, *seed
	cfg.Plan.Drop, cfg.Plan.Dup, cfg.Plan.Reorder = *drop, *dup, *reorder
	j, err := parseSimDuration(*jitter)
	if err != nil {
		return fmt.Errorf("bad -jitter: %w", err)
	}
	cfg.Plan.Jitter = j
	if *partition != "" {
		parts := strings.Split(*partition, ",")
		if len(parts) != 2 {
			return fmt.Errorf("bad -partition %q: want from,until", *partition)
		}
		from, err := parseSimDuration(strings.TrimSpace(parts[0]))
		if err != nil {
			return fmt.Errorf("bad -partition: %w", err)
		}
		until, err := parseSimDuration(strings.TrimSpace(parts[1]))
		if err != nil {
			return fmt.Errorf("bad -partition: %w", err)
		}
		a, b := halves(cfg.Hosts)
		cfg.Plan.Partitions = append(cfg.Plan.Partitions, faultnet.Partition{
			A: a, B: b, From: sim.Time(from), Until: sim.Time(until),
		})
	}
	if *crash != "" {
		parts := strings.Split(*crash, ",")
		if len(parts) != 3 {
			return fmt.Errorf("bad -crash %q: want host,at,restart", *crash)
		}
		host, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return fmt.Errorf("bad -crash host: %w", err)
		}
		at, err := parseSimDuration(strings.TrimSpace(parts[1]))
		if err != nil {
			return fmt.Errorf("bad -crash: %w", err)
		}
		restart, err := parseSimDuration(strings.TrimSpace(parts[2]))
		if err != nil {
			return fmt.Errorf("bad -crash: %w", err)
		}
		cfg.Plan.Crashes = append(cfg.Plan.Crashes, faultnet.Crash{
			Host: host, At: sim.Time(at), RestartAt: sim.Time(restart),
		})
	}
	return bench.Chaos(os.Stdout, cfg)
}

func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "BENCH_sim.json", "machine-readable report path (empty = table only)")
	fs.Parse(args)
	return bench.WritePerfBench(os.Stdout, *out)
}

func runAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "problem scale")
	fast := fs.Bool("fast", false, "coarser Figure 5 sampling")
	seed := fs.Int64("seed", 1, "simulation seed")
	fs.Parse(args)

	fmt.Println("=== Table 1 and Section 4.2 ===")
	if err := runCosts(); err != nil {
		return err
	}
	fmt.Println("\n=== Figure 5 ===")
	var mvArgs []string
	if *fast {
		mvArgs = append(mvArgs, "-fast")
	}
	if err := runMVOverhead(mvArgs); err != nil {
		return err
	}
	fmt.Println("\n=== Figure 6 and Table 2 ===")
	if err := runApps([]string{"-scale", fmt.Sprint(*scale), "-seed", fmt.Sprint(*seed)}); err != nil {
		return err
	}
	fmt.Println("\n=== Figure 7 ===")
	return runChunking([]string{"-scale", fmt.Sprint(*scale), "-seed", fmt.Sprint(*seed)})
}
