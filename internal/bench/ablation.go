package bench

import (
	"fmt"
	"io"

	millipage "millipage"
	"millipage/internal/apps"
	"millipage/internal/sim"
)

// This file holds the ablation studies for the design choices DESIGN.md
// calls out:
//
//   - AblationLRC: the paper's Section 5 proposal — once chunking makes
//     minipages coarser than the sharing unit, a lazy-release-consistency
//     protocol can absorb the reintroduced false sharing. Compares
//     sequential consistency at fine grain, SC on chunked minipages
//     (ping-pong), and multi-writer LRC on the same chunked minipages.
//
//   - AblationTimers: Section 3.5's "once the fm polling problem is
//     resolved and/or the operating system timer resolution is refined"
//     — the suite with and without the NT timer pathology.

// LRCRow is one configuration of the LRC ablation.
type LRCRow struct {
	Name        string
	Elapsed     sim.Duration
	WriteFaults uint64
	Messages    uint64
}

// AblationLRC runs the regime Section 5 describes. Each iteration, every
// host updates its own interleaved 64-byte slots (twice, so invalidations
// bite), then reads the whole array, then barriers:
//
//   - SC at fine grain avoids false sharing but pays one fetch per tiny
//     minipage in the read phase;
//   - SC on chunked minipages fetches fewer, larger minipages but the
//     interleaved writers ping-pong each chunk;
//   - LRC-MW on the same chunked minipages takes one twin per chunk per
//     interval, merges run-length diffs at synchronization, and keeps the
//     coarse fetch granularity — both advantages at once.
func AblationLRC(w io.Writer, hosts, slots, iters, chunk int) error {
	const slotBytes = 64
	const writeRounds = 2
	workPerSlot := 100 * sim.Microsecond

	run := func(protocol string, chunkLevel int) (LRCRow, error) {
		cl, err := millipage.NewCluster(millipage.Config{
			Protocol:     protocol,
			Hosts:        hosts,
			SharedMemory: 1 << 20,
			Views:        16,
			ChunkLevel:   chunkLevel,
			Seed:         7,
		})
		if err != nil {
			return LRCRow{}, err
		}
		vas := make([]millipage.Addr, slots)
		rep, err := cl.Run(func(wk *millipage.Worker) {
			if wk.Host() == 0 {
				for i := range vas {
					vas[i] = wk.Malloc(slotBytes)
				}
			}
			wk.Barrier()
			for it := 0; it < iters; it++ {
				for round := 0; round < writeRounds; round++ {
					for sIdx := wk.Host(); sIdx < slots; sIdx += hosts {
						wk.WriteU32(vas[sIdx], uint32(it))
						wk.Compute(workPerSlot)
					}
				}
				for sIdx := 0; sIdx < slots; sIdx++ {
					_ = wk.ReadU32(vas[sIdx])
				}
				wk.Barrier()
			}
		})
		if err != nil {
			return LRCRow{}, err
		}
		return LRCRow{Elapsed: rep.Elapsed, WriteFaults: rep.WriteFaults, Messages: rep.MessagesSent}, nil
	}

	runs := []struct {
		name string
		run  func() (LRCRow, error)
	}{
		{"SC, fine grain (1 slot/minipage)", func() (LRCRow, error) { return run("millipage", 1) }},
		{fmt.Sprintf("SC, chunked (%d slots/minipage)", chunk), func() (LRCRow, error) { return run("millipage", chunk) }},
		{fmt.Sprintf("LRC-MW, chunked (%d slots/minipage)", chunk), func() (LRCRow, error) { return run("lrc-mw", chunk) }},
	}
	rows, err := sweep(len(runs), func(i int) (LRCRow, error) {
		r, err := runs[i].run()
		r.Name = runs[i].name
		return r, err
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Ablation: reduced consistency over chunked minipages (Section 5)\n")
	fmt.Fprintf(w, "%d hosts, %d slots x %d iterations, interleaved writers\n", hosts, slots, iters)
	fmt.Fprintf(w, "%-36s %12s %13s %10s\n", "configuration", "elapsed", "write faults", "messages")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %12v %13d %10d\n", r.Name, r.Elapsed, r.WriteFaults, r.Messages)
	}
	fmt.Fprintln(w, "(expected: SC-chunked ping-pongs; LRC-MW absorbs the intra-minipage false")
	fmt.Fprintln(w, " sharing while keeping the chunked layout's lower minipage count, merging")
	fmt.Fprintln(w, " concurrent twins' run-length diffs at the homes and paying the calibrated")
	fmt.Fprintln(w, " twin/diff costs instead of a whole-minipage transfer per write fault)")
	return nil
}

// MWRow is one protocol's run of an SC-vs-multi-writer comparison
// kernel.
type MWRow struct {
	Name     string
	Protocol string
	Timed    sim.Duration
	Faults   uint64
	Messages uint64
	Engine   sim.Counters // what the run cost the event engine
	Checked  bool         // the application's own verification ran and passed
}

// FalseShareKernel runs the interleaved-writer false-sharing kernel —
// 64 slots chunked eight to a minipage across 4 hosts, so every chunk
// has four concurrent writers — under the given protocol.
func FalseShareKernel(protocol string, seed int64) (MWRow, error) {
	const slots, iters, slotBytes = 64, 4, 64
	cluster, err := millipage.NewCluster(millipage.Config{
		Protocol:     protocol,
		Hosts:        4,
		SharedMemory: 1 << 20,
		Views:        16,
		ChunkLevel:   8,
		Seed:         seed,
	})
	if err != nil {
		return MWRow{}, err
	}
	vas := make([]millipage.Addr, slots)
	rep, err := cluster.Run(func(wk *millipage.Worker) {
		if wk.Host() == 0 {
			for i := range vas {
				vas[i] = wk.Malloc(slotBytes)
			}
		}
		wk.Barrier()
		for it := 0; it < iters; it++ {
			for i := wk.Host(); i < slots; i += wk.NumHosts() {
				wk.WriteU32(vas[i], uint32(it))
				wk.Compute(100 * sim.Microsecond)
			}
			wk.Barrier()
		}
	})
	if err != nil {
		return MWRow{}, err
	}
	return MWRow{
		Name: "falseshare chunk8/4H", Protocol: protocol, Timed: sim.Duration(rep.Elapsed),
		Faults: rep.ReadFaults + rep.WriteFaults, Messages: rep.MessagesSent,
		Engine: cluster.EngineCounters(),
	}, nil
}

// WaterChunkPoint runs WATER at the paper's 8-host chunking level
// (Figure 7's optimum, level 5) under the given protocol.
func WaterChunkPoint(protocol string, scale float64, seed int64) (MWRow, error) {
	res, err := apps.RunWATER(apps.Params{
		Protocol: protocol, Hosts: 8, Scale: scale, Seed: seed, ChunkLevel: 5,
	})
	if err != nil {
		return MWRow{}, err
	}
	rep := res.Report
	return MWRow{
		Name: "WATER chunk5/8H", Protocol: protocol, Timed: res.Timed,
		Faults: rep.ReadFaults + rep.WriteFaults, Messages: rep.MessagesSent,
		Engine: res.Engine.Counters, Checked: res.Checked,
	}, nil
}

// MWCompare charts the Section 4.2 claim directly: the twin/diff
// machinery Millipage declines is priced with the calibrated twindiff
// cost model and run head to head against SC-Millipage on the two
// workloads where the choice matters — the interleaved-writer false-
// sharing kernel (chunked minipages, every chunk has four concurrent
// writers) and WATER at the paper's 8-host chunking level.
func MWCompare(w io.Writer, scale float64, seed int64) error {
	kernels := []func(string) (MWRow, error){
		func(p string) (MWRow, error) { return FalseShareKernel(p, seed) },
		func(p string) (MWRow, error) { return WaterChunkPoint(p, scale, seed) },
	}
	protocols := []string{"millipage", "lrc-mw"}
	rows, err := sweep(len(kernels)*len(protocols), func(i int) (MWRow, error) {
		return kernels[i/len(protocols)](protocols[i%len(protocols)])
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "SC-Millipage vs multi-writer LRC (calibrated twindiff cost model)")
	fmt.Fprintf(w, "%-22s %-10s %12s %10s %10s\n", "workload", "protocol", "timed", "faults", "messages")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-10s %12v %10d %10d\n", r.Name, r.Protocol, r.Timed, r.Faults, r.Messages)
	}
	fmt.Fprintln(w, "(lrc-mw trades SC's per-write invalidation ping-pong for twin creation at")
	fmt.Fprintln(w, " first write and run-length diff exchange at synchronization; the Section 4.2")
	fmt.Fprintln(w, " diff cost shows up as virtual time charged per twin/diff operation)")
	return nil
}

// AblationComposedViews compares WATER's read-phase strategies at 8
// hosts (Section 5's composed-views proposal): per-molecule minipages
// with sequential faults, the paper's chunking compromise, and composed
// views — fine-grain sharing with a gang-fetched read phase.
func AblationComposedViews(w io.Writer, scale float64, seed int64) error {
	type cfg struct {
		name string
		p    apps.Params
	}
	cfgs := []cfg{
		{"fine grain (chunk 1)", apps.Params{Hosts: 8, Scale: scale, Seed: seed}},
		{"chunked (level 5)", apps.Params{Hosts: 8, Scale: scale, Seed: seed, ChunkLevel: 5}},
		{"composed views (gang read phase)", apps.Params{Hosts: 8, Scale: scale, Seed: seed, ComposedViews: true}},
	}
	results, err := sweep(len(cfgs), func(i int) (apps.Result, error) {
		return apps.RunWATER(cfgs[i].p)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: WATER read-phase strategies at 8 hosts (Section 5, composed views)")
	fmt.Fprintf(w, "%-36s %12s %10s %12s\n", "configuration", "timed", "faults", "competing")
	for i, c := range cfgs {
		res := results[i]
		rep := res.Report
		fmt.Fprintf(w, "%-36s %12v %10d %12d\n",
			c.name, res.Timed, rep.ReadFaults+rep.WriteFaults, rep.CompetingRequests)
	}
	fmt.Fprintln(w, "(composed views cut the read phase substantially while keeping per-molecule")
	fmt.Fprintln(w, " sharing; chunking still wins overall for WATER because the force-combine")
	fmt.Fprintln(w, " phase also benefits from aggregation — the arbitration Section 5 sketches")
	fmt.Fprintln(w, " would want composed views there too)")
	return nil
}

// AblationTimers compares the suite at 8 hosts with the NT timer
// pathology (the paper's measured reality) and with ideal service
// threads.
func AblationTimers(w io.Writer, scale float64, seed int64) error {
	suite := apps.Suite()
	// Two runs per application (with and without the pathology), all
	// independent: flatten to a 2-wide grid.
	results, err := sweep(2*len(suite), func(i int) (apps.Result, error) {
		p := apps.Params{Hosts: 8, Scale: scale, Seed: seed, PerfectTimers: i%2 == 1}
		return suite[i/2].Run(p)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: NT timer pathology vs ideal service threads (Section 3.5)")
	fmt.Fprintf(w, "%-8s %14s %14s %9s\n", "app", "NT timers", "ideal timers", "gain")
	for i, app := range suite {
		real, ideal := results[2*i], results[2*i+1]
		gain := float64(real.Timed) / float64(ideal.Timed)
		fmt.Fprintf(w, "%-8s %14v %14v %8.2fx\n", app.Name, real.Timed, ideal.Timed, gain)
	}
	fmt.Fprintln(w, "(the paper attributes ~2/3 of its 750us average fault service time to")
	fmt.Fprintln(w, " late sweeper wakeups; ideal timers recover most of it)")
	return nil
}
