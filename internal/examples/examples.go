// Package examples holds the runnable bodies of the examples/ programs
// as headless, protocol-parameterized functions. The thin main packages
// under examples/ call into here with os.Stdout; the smoke test runs
// every example under every protocol against a buffer and pins golden
// virtual-time digests, so example rot breaks tier-1 instead of rotting
// silently.
//
// Every example verifies its own result and returns an error on a wrong
// answer, so a run that "completes" with bad data still fails loudly.
package examples

import (
	"fmt"
	"io"

	millipage "millipage"
	"millipage/internal/sim"
)

// An Example runs one example program under the given protocol
// ("millipage", "ivy" or "lrc-mw"), writing its human-readable output to
// out and returning the run's report.
type Example func(protocol string, out io.Writer) (*millipage.Report, error)

// Quickstart is the four-host tour of the Section 3.4 API surface: a
// shared counter incremented under a cluster-wide lock and a message
// buffer written by host 0, with barriers separating the phases.
func Quickstart(protocol string, out io.Writer) (*millipage.Report, error) {
	cluster, err := millipage.NewCluster(millipage.Config{
		Protocol:     protocol,
		Hosts:        4,
		SharedMemory: 1 << 20,
		Views:        8, // up to 8 minipages may share a physical page
	})
	if err != nil {
		return nil, err
	}

	var counter, greeting millipage.Addr
	var verr error // worker bodies run serialized on the virtual clock

	report, err := cluster.Run(func(w *millipage.Worker) {
		// Host 0 allocates the shared data. Each allocation becomes its
		// own minipage: the two variables may share a physical page but
		// never falsely share.
		if w.Host() == 0 {
			counter = w.Malloc(8)
			greeting = w.Malloc(64)
			w.WriteU64(counter, 0)
			w.Write(greeting, []byte("hello from host 0       "))
		}
		w.Barrier()

		// Every host increments the counter under a cluster-wide lock.
		// Sequential consistency means no flushes, no release operations:
		// it reads like threads on one machine.
		for i := 0; i < 10; i++ {
			w.Lock(1)
			w.WriteU64(counter, w.ReadU64(counter)+1)
			w.Unlock(1)
		}
		w.Barrier()

		// Everyone reads both variables; the DSM moved them as needed.
		buf := make([]byte, 24)
		w.Read(greeting, buf)
		got := w.ReadU64(counter)
		fmt.Fprintf(out, "host %d: counter=%d greeting=%q\n", w.Host(), got, string(buf))
		if want := uint64(10 * w.NumHosts()); got != want && verr == nil {
			verr = fmt.Errorf("quickstart: host %d read counter=%d, want %d", w.Host(), got, want)
		}
		w.Barrier()
	})
	if err != nil {
		return nil, err
	}
	if verr != nil {
		return nil, verr
	}
	fmt.Fprintf(out, "\nrun summary:\n%s\n", report)
	return report, nil
}

// FalseShare is the experiment the paper opens with: two hosts each
// write their own variable, but the variables live on the same physical
// page. Under "millipage" it runs the workload twice — MultiView layout,
// then the traditional page-granularity layout — and prints the
// fault/message comparison. The layout is millipage's to choose (ivy is
// page-grain, lrc-mw's twins absorb the false sharing, and both reject
// PageGranularity), so under the other protocols it prints their one run.
// The returned report is the first (MultiView-layout) run's.
func FalseShare(protocol string, out io.Writer) (*millipage.Report, error) {
	var proto string // the cluster's canonical protocol name
	run := func(pageGrain bool) (*millipage.Report, error) {
		cluster, err := millipage.NewCluster(millipage.Config{
			Protocol:        protocol,
			Hosts:           2,
			SharedMemory:    1 << 16,
			Views:           4,
			PageGranularity: pageGrain,
		})
		if err != nil {
			return nil, err
		}
		proto = cluster.Protocol()
		var vars [2]millipage.Addr
		return cluster.Run(func(w *millipage.Worker) {
			if w.Host() == 0 {
				vars[0] = w.Malloc(64) // same physical page,
				vars[1] = w.Malloc(64) // different minipages (or not...)
			}
			w.Barrier()
			mine := vars[w.Host()]
			for i := 0; i < 200; i++ {
				w.WriteU32(mine, uint32(i))
				w.Compute(200 * sim.Microsecond) // 200us of "work"
			}
			w.Barrier()
		})
	}
	row := func(layout string, r *millipage.Report) {
		fmt.Fprintf(out, "%-22s %12d %12d %14d %12v\n", layout, r.WriteFaults, r.MessagesSent, r.BytesSent, r.Elapsed)
	}

	multi, err := run(false)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, "two hosts, 200 writes each to neighboring variables on one page")
	fmt.Fprintf(out, "%-22s %12s %12s %14s %12s\n", "layout", "write faults", "messages", "bytes moved", "elapsed")
	if proto != "millipage" {
		row(proto+"'s own", multi)
		return multi, nil
	}
	page, err := run(true)
	if err != nil {
		return nil, err
	}
	row("MultiView minipages", multi)
	row("page granularity", page)
	fmt.Fprintf(out, "\nfalse-sharing fault ratio: %.0fx\n",
		float64(page.WriteFaults)/float64(max(multi.WriteFaults, 1)))
	return multi, nil
}

// Histogram is a parallel reduction in the style of the paper's IS
// benchmark: eight hosts histogram a large key stream into a shared
// 2 KB array split into per-host 256-byte regions — each region its own
// minipage — combined with a skewed all-to-all schedule so every region
// has exactly one writer per phase and no locks are needed. Host 0
// verifies the grand total. Prefetch overlaps the next region's fetch
// with the current sum (a Millipage hint; a no-op elsewhere).
func Histogram(protocol string, out io.Writer) (*millipage.Report, error) {
	const (
		hosts   = 8
		buckets = 512
		keys    = 1 << 20
	)
	cluster, err := millipage.NewCluster(millipage.Config{
		Protocol:     protocol,
		Hosts:        hosts,
		SharedMemory: 64 << 10,
		Views:        8,
	})
	if err != nil {
		return nil, err
	}

	per := buckets / hosts
	regionBytes := per * 4
	var regions [hosts]millipage.Addr
	var verr error

	report, err := cluster.Run(func(w *millipage.Worker) {
		h := w.Host()
		if h == 0 {
			for r := range regions {
				regions[r] = w.Malloc(regionBytes)
				w.Write(regions[r], make([]byte, regionBytes))
			}
		}
		w.Barrier()

		// Local histogram of this host's slice of the key stream.
		local := make([]uint32, buckets)
		n := keys / hosts
		for i := 0; i < n; i++ {
			k := (uint64(h*n+i)*0x9E3779B97F4A7C15 ^ 0xD1B54A32D192ED03) >> 11 % buckets
			local[k]++
		}
		w.Compute(millipage.Duration(n) * 45) // ~45ns per key on the testbed

		// Skewed all-to-all: in phase p host h owns region (h+p)%hosts.
		buf := make([]byte, regionBytes)
		for phase := 0; phase < hosts; phase++ {
			r := (h + phase) % hosts
			if phase+1 < hosts {
				w.Prefetch(regions[(h+phase+1)%hosts], regionBytes)
			}
			w.Read(regions[r], buf)
			for b := 0; b < per; b++ {
				v := uint32(buf[4*b]) | uint32(buf[4*b+1])<<8 | uint32(buf[4*b+2])<<16 | uint32(buf[4*b+3])<<24
				v += local[r*per+b]
				buf[4*b], buf[4*b+1], buf[4*b+2], buf[4*b+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			}
			w.Write(regions[r], buf)
			w.Barrier()
		}

		// Host 0 verifies the grand total.
		if h == 0 {
			var total uint64
			for r := 0; r < hosts; r++ {
				w.Read(regions[r], buf)
				for b := 0; b < per; b++ {
					total += uint64(uint32(buf[4*b]) | uint32(buf[4*b+1])<<8 |
						uint32(buf[4*b+2])<<16 | uint32(buf[4*b+3])<<24)
				}
			}
			fmt.Fprintf(out, "histogram total = %d (want %d)\n", total, uint64(keys/hosts*hosts))
			if total != uint64(keys/hosts*hosts) {
				verr = fmt.Errorf("histogram: grand total %d, want %d", total, keys/hosts*hosts)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if verr != nil {
		return nil, verr
	}
	fmt.Fprintf(out, "\nelapsed %v, %d read faults, %d write faults, %d messages\n",
		report.Elapsed, report.ReadFaults, report.WriteFaults, report.MessagesSent)
	fmt.Fprintf(out, "views in use: %d (eight 256-byte regions per 4 KB page)\n", report.ViewsUsed)
	return report, nil
}

// LazyRelease demonstrates the Section-5 extension: four hosts write
// interleaved slots that chunking (ChunkLevel 8) has packed into shared
// minipages. Under "lrc-mw" each host writes a local twin and run-length
// diffs merge at the barrier — false sharing inside the chunk costs
// nothing between synchronization points. The same data-race-free
// program runs under "millipage" and "ivy" for comparison, where the
// concurrent writers invalidate each other instead.
func LazyRelease(protocol string, out io.Writer) (*millipage.Report, error) {
	cluster, err := millipage.NewCluster(millipage.Config{
		Protocol:     protocol,
		Hosts:        4,
		SharedMemory: 1 << 20,
		Views:        16,
		ChunkLevel:   8, // eight 64-byte slots share each minipage
		Seed:         1,
	})
	if err != nil {
		return nil, err
	}

	const slots = 64
	vas := make([]millipage.Addr, slots)
	var verr error

	report, err := cluster.Run(func(w *millipage.Worker) {
		if w.Host() == 0 {
			for i := range vas {
				vas[i] = w.Malloc(64)
			}
		}
		w.Barrier()

		// Three barrier-separated rounds of interleaved writes: slot i
		// belongs to host i%4, so every chunk has four concurrent writers.
		for round := 0; round < 3; round++ {
			for i := w.Host(); i < slots; i += w.NumHosts() {
				w.WriteU32(vas[i], uint32(round*1000+i))
				w.Compute(200 * sim.Microsecond)
			}
			w.Barrier()
		}

		// Everyone observes the merged result.
		if w.Host() == 0 {
			ok := true
			for i := range vas {
				if got := w.ReadU32(vas[i]); got != uint32(2000+i) {
					fmt.Fprintf(out, "slot %d = %d, want %d\n", i, got, 2000+i)
					ok = false
				}
			}
			if ok {
				fmt.Fprintln(out, "all 64 slots merged correctly across 4 concurrent writers")
			} else {
				verr = fmt.Errorf("lazyrelease: merged slots do not match")
			}
		}
		w.Barrier()
	})
	if err != nil {
		return nil, err
	}
	if verr != nil {
		return nil, verr
	}
	fmt.Fprintf(out, "\nelapsed %v\n", report.Elapsed)
	fmt.Fprintf(out, "write faults: %d, barriers: %d\n", report.WriteFaults, report.Barriers)
	fmt.Fprintf(out, "net: %d messages, %d bytes\n", report.MessagesSent, report.BytesSent)
	return report, nil
}
