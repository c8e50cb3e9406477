package bench

import (
	"fmt"
	"io"

	millipage "millipage"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// protocolLabels names the registry's protocols in presentation order, with
// the row labels the sweep table prints.
var protocolLabels = []struct {
	proto string
	label string
}{
	{"millipage", "Millipage (minipage granularity)"},
	{"ivy", "Ivy preset (pages, mgr p mod N)"},
	{"lrc-mw", "LRC-MW (multi-writer, notices)"},
}

// Baseline runs the paper's motivating scenario — hosts updating small
// unrelated variables that pack onto shared pages — through every
// protocol behind the root API: Millipage's minipage-grain SW/MR
// protocol, the same protocol as a classic Li/Hudak page-based DSM (the
// ivy preset: page grain, page p managed at host p mod N), and
// multi-writer lazy release consistency (dsm's multi-writer class). One
// driver, one workload; only Config.Protocol changes. It is the
// quantified version of the paper's introduction: page-grain false
// sharing is the problem, MultiView minipages and relaxed consistency are
// the two escapes.
func Baseline(w io.Writer, hosts, varsPerHost, iters int) error {
	const varBytes = 64
	work := 1 * sim.Millisecond
	totalVars := hosts * varsPerHost

	run := func(protocol string) (*millipage.Report, error) {
		cluster, err := millipage.NewCluster(millipage.Config{
			Protocol:     protocol,
			Hosts:        hosts,
			SharedMemory: 1 << 20,
			Views:        16,
			Seed:         3,
		})
		if err != nil {
			return nil, err
		}
		// 64-byte allocations pack onto shared pages in every protocol;
		// Millipage alone gives each one its own coherence unit.
		vas := make([]millipage.Addr, totalVars)
		return cluster.Run(func(wk *millipage.Worker) {
			if wk.Host() == 0 {
				for i := range vas {
					vas[i] = wk.Malloc(varBytes)
				}
			}
			wk.Barrier()
			for it := 0; it < iters; it++ {
				for v := wk.Host(); v < totalVars; v += hosts {
					wk.WriteU32(vas[v], uint32(it))
					wk.Compute(work)
				}
			}
			wk.Barrier()
		})
	}

	reports := make(map[string]*millipage.Report, len(protocolLabels))
	for _, pl := range protocolLabels {
		rep, err := run(pl.proto)
		if err != nil {
			return fmt.Errorf("baseline %s: %w", pl.proto, err)
		}
		reports[pl.proto] = rep
	}

	pagesTouched := (totalVars*varBytes + vm.PageSize - 1) / vm.PageSize
	fmt.Fprintf(w, "Baseline: %d hosts updating %d interleaved 64B variables (%d pages), %d rounds\n",
		hosts, totalVars, pagesTouched, iters)
	fmt.Fprintf(w, "%-34s %12s %13s %10s\n", "system", "elapsed", "write faults", "messages")
	for _, pl := range protocolLabels {
		rep := reports[pl.proto]
		fmt.Fprintf(w, "%-34s %12v %13d %10d\n", pl.label, rep.Elapsed, rep.WriteFaults, rep.MessagesSent)
	}
	mpF, ivF := reports["millipage"].WriteFaults, reports["ivy"].WriteFaults
	if mpF > 0 {
		fmt.Fprintf(w, "false-sharing fault ratio: %.1fx\n", float64(ivF)/float64(mpF))
	}
	fmt.Fprintf(w, "\nexecution breakdown (Figure 6 right, per protocol)\n")
	fmt.Fprintf(w, "%-34s %7s %9s %10s %11s %7s\n", "system", "comp%", "prefetch%", "readflt%", "writeflt%", "synch%")
	for _, pl := range protocolLabels {
		c, p, rf, wf, s := reports[pl.proto].AvgBreakdown()
		fmt.Fprintf(w, "%-34s %7.1f %9.1f %10.1f %11.1f %7.1f\n",
			pl.label, c*100, p*100, rf*100, wf*100, s*100)
	}
	return nil
}
