// Command mvtrace runs a tiny DSM workload with protocol tracing and
// prints the complete transcript: every message, fault and handler
// dispatch on the virtual clock. It is the fastest way to see the
// Figure-3 protocol operate — a read miss, a write upgrade with
// invalidation, and a competing request queued at the manager — and,
// with -protocol, how the page-grain ivy preset or multi-writer LRC
// handles the same access pattern.
//
// Usage: mvtrace [-hosts N] [-kind read|write|competing|lock]
//
//	[-protocol millipage|ivy|lrc-mw]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"millipage/internal/dsm"
	"millipage/internal/registry"
	"millipage/internal/sim"
	"millipage/internal/trace"
)

func main() {
	hosts := flag.Int("hosts", 3, "cluster size")
	kind := flag.String("kind", "write", "scenario: read, write, competing, or lock")
	protocol := flag.String("protocol", "millipage", "coherence protocol: "+strings.Join(registry.Names(), ", "))
	flag.Parse()

	rec := trace.NewRecorder(4096)

	// The scenarios use only the protocol-independent application API, so
	// one body runs under every protocol.
	var va uint64
	scenario := func(t *dsm.Thread) {
		switch *kind {
		case "read":
			// Host 1 read-misses a minipage owned by host 0.
			if t.Host() == 0 {
				va = t.Malloc(128)
				t.WriteU32(va, 42)
			}
			t.Barrier()
			if t.Host() == 1 {
				_ = t.ReadU32(va)
			}
		case "write":
			// All hosts take read copies, then the last host writes:
			// the manager invalidates every replica first (under LRC the
			// write notice invalidates the readers' copies at the barrier).
			if t.Host() == 0 {
				va = t.Malloc(128)
				t.WriteU32(va, 1)
			}
			t.Barrier()
			_ = t.ReadU32(va)
			t.Barrier()
			if t.Host() == t.NumHosts()-1 {
				t.WriteU32(va, 2)
			}
		case "competing":
			// Everyone faults on the same minipage at once; the manager
			// queues the late requests (the paper's competing requests).
			if t.Host() == 0 {
				va = t.Malloc(128)
				t.WriteU32(va, 1)
			}
			t.Barrier()
			if t.Host() != 0 {
				_ = t.ReadU32(va)
			}
		case "lock":
			// Every host adds to a counter under a lock, twice: under SC a
			// host's second read is served exclusive once its first write
			// went to the home, and its write then sends no message.
			if t.Host() == 0 {
				va = t.Malloc(64)
				t.WriteU32(va, 0)
			}
			t.Barrier()
			for i := 0; i < 2; i++ {
				t.Lock(1)
				t.WriteU32(va, t.ReadU32(va)+1)
				t.Unlock(1)
			}
		default:
			fmt.Fprintf(os.Stderr, "mvtrace: unknown scenario %q\n", *kind)
			os.Exit(2)
		}
		t.Barrier()
		t.Idle(5 * sim.Millisecond) // let trailing acks drain into the trace
	}

	spec, err := registry.Lookup(*protocol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvtrace:", err)
		os.Exit(2)
	}
	sys, err := spec.New(registry.Options{
		Hosts: *hosts, SharedSize: 1 << 16, Views: 4, Seed: 1, Trace: rec,
	})
	if err == nil {
		err = sys.Run(scenario)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvtrace:", err)
		os.Exit(1)
	}

	fmt.Printf("scenario %q under %s on %d hosts — %d events:\n\n", *kind, spec.Name, *hosts, rec.Total())
	rec.Dump(os.Stdout)

	// The postscript is the one class-specific part: each consistency
	// class's own counters, which the portable Totals do not carry.
	if spec.SC {
		ms := sys.ManagerStatsTotal()
		fmt.Printf("\ncompeting requests queued at the manager: %d  exclusive reads: %d  homes moved: %d\n",
			ms.CompetingRequests, ms.ExclusiveReads, sys.MWStats().Migrations)
	} else {
		st := sys.MWStats()
		fmt.Printf("\nfetches: %d  diffs sent: %d  notices: %d  invalidations: %d  twins made: %d\n",
			st.Fetches, st.DiffsSent, st.Notices, st.Invalidations, st.TwinsMade)
		fmt.Printf("home writes: %d  fetches parked at the home: %d  home acquires held for a diff: %d  homes moved: %d\n",
			st.HomeWrites, st.FetchesParked, st.HomeWaits, st.Migrations)
	}
}
