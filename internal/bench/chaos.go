package bench

import (
	"fmt"
	"io"

	"millipage"
	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// ChaosConfig sizes one seeded fault-injection run: the write-heavy
// directory workload of ManagerLoad plus a lock-protected accumulator,
// executed through the public Worker API under any protocol while the
// fault plan mangles the wire.
type ChaosConfig struct {
	Protocol string // "millipage", "ivy" or "lrc-mw"
	Hosts    int
	Vars     int // shared variables, each its own minipage
	Rounds   int // barrier-separated write/read rounds
	Seed     int64
	Plan     faultnet.Plan
}

// DefaultChaos is a short but hostile schedule: every fault class at
// once on a four-host cluster.
func DefaultChaos() ChaosConfig {
	return ChaosConfig{
		Protocol: "millipage",
		Hosts:    4,
		Vars:     16,
		Rounds:   3,
		Seed:     21,
		Plan: faultnet.Plan{
			Drop:    0.10,
			Dup:     0.05,
			Reorder: 0.20,
			Jitter:  2 * sim.Millisecond,
		},
	}
}

// chaosExpected computes the oracle value of variable v after all
// rounds. The workload is phase-deterministic — in round r variable v is
// written exactly once, by thread (v+r) mod hosts — so the final
// contents are a pure function of the configuration, independent of
// protocol, timing and injected faults.
func chaosExpected(v, rounds int) uint32 {
	val := uint32(v)
	for r := 0; r < rounds; r++ {
		val = val*31 + uint32(r+1)
	}
	return val
}

// Chaos runs the workload under the fault plan and checks two oracles:
// every shared variable must end at its phase-deterministic value, and a
// lock-protected accumulator must count exactly hosts x rounds
// increments. It then reports the run's elapsed virtual time and how
// hard the reliability layer worked (retransmits, duplicates dropped,
// out-of-order buffering, frames lost at down hosts). Any oracle
// violation is an error: faults may change timing, never results.
func Chaos(w io.Writer, cfg ChaosConfig) error {
	if cfg.Hosts < 1 {
		return fmt.Errorf("bench: chaos needs at least one host, got %d", cfg.Hosts)
	}
	if cfg.Vars < 1 || cfg.Rounds < 1 {
		return fmt.Errorf("bench: chaos needs at least one variable and one round")
	}
	cl, err := millipage.NewCluster(millipage.Config{
		Protocol:     cfg.Protocol,
		Hosts:        cfg.Hosts,
		SharedMemory: 1 << 20,
		Views:        16,
		Seed:         cfg.Seed,
		Faults:       &cfg.Plan,
	})
	if err != nil {
		return err
	}
	vas := make([]millipage.Addr, cfg.Vars)
	var counterVA millipage.Addr
	var oracleErr error
	report, err := cl.Run(func(wk *millipage.Worker) {
		if wk.Host() == 0 {
			for v := range vas {
				vas[v] = wk.Malloc(64)
				wk.WriteU32(vas[v], uint32(v))
			}
			counterVA = wk.Malloc(64)
			wk.WriteU32(counterVA, 0)
		}
		wk.Barrier()
		for r := 0; r < cfg.Rounds; r++ {
			for v := 0; v < cfg.Vars; v++ {
				if (v+r)%cfg.Hosts == wk.Host() {
					wk.WriteU32(vas[v], wk.ReadU32(vas[v])*31+uint32(r+1))
				}
			}
			wk.Lock(0)
			wk.WriteU32(counterVA, wk.ReadU32(counterVA)+1)
			wk.Unlock(0)
			wk.Barrier()
			for v := 0; v < cfg.Vars; v++ {
				_ = wk.ReadU32(vas[v])
			}
			wk.Barrier()
		}
		if wk.Host() == 0 {
			for v := range vas {
				if got, want := wk.ReadU32(vas[v]), chaosExpected(v, cfg.Rounds); got != want {
					oracleErr = fmt.Errorf("bench: chaos oracle: var %d = %d, want %d", v, got, want)
					return
				}
			}
			if got, want := wk.ReadU32(counterVA), uint32(cfg.Hosts*cfg.Rounds); got != want {
				oracleErr = fmt.Errorf("bench: chaos oracle: lock counter = %d, want %d", got, want)
			}
		}
	})
	if err != nil {
		return err
	}
	if oracleErr != nil {
		return oracleErr
	}
	fmt.Fprintf(w, "Chaos: protocol=%s hosts=%d vars=%d rounds=%d seed=%d\n",
		cl.Protocol(), cfg.Hosts, cfg.Vars, cfg.Rounds, cfg.Seed)
	fmt.Fprintf(w, "plan: drop=%.2f dup=%.2f reorder=%.2f jitter=%v partitions=%d crashes=%d\n",
		cfg.Plan.Drop, cfg.Plan.Dup, cfg.Plan.Reorder, cfg.Plan.Jitter,
		len(cfg.Plan.Partitions), len(cfg.Plan.Crashes))
	fmt.Fprintf(w, "elapsed=%v msgs=%d\n", report.Elapsed, report.MessagesSent)
	fmt.Fprintf(w, "reliability: retransmits=%d dups=%d ooo=%d dropped=%d\n",
		report.Retransmits, report.DupsDropped, report.OutOfOrder, report.FramesDropped)
	fmt.Fprintln(w, "oracle: OK (all variables and the lock counter converged)")
	return nil
}
