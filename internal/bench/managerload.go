package bench

import (
	"fmt"
	"hash/fnv"
	"io"

	"millipage/internal/dsm"
	"millipage/internal/sim"
)

// ManagerLoadResult is one directory placement's run of the write-heavy
// directory workload.
type ManagerLoadResult struct {
	Elapsed  sim.Duration
	PerShard []uint64 // directory requests (read + write) served per host
	Checksum uint64   // FNV-64a over the final variable values
}

// MaxMeanRatio is the load-balance figure of merit: the busiest shard's
// request count over the per-shard mean. A perfectly balanced directory
// scores 1.0; the centralized manager on h hosts scores h.
func (r ManagerLoadResult) MaxMeanRatio() float64 {
	var max, sum uint64
	for _, n := range r.PerShard {
		if n > max {
			max = n
		}
		sum += n
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(r.PerShard))
	return float64(max) / mean
}

// ManagerLoadConfig sizes the workload.
type ManagerLoadConfig struct {
	Hosts  int
	Vars   int // shared variables, each its own minipage
	Rounds int // barrier-separated write/read rounds
	Seed   int64
}

// DefaultManagerLoad is the write-heavy eight-host configuration the
// sharding was built for: every round each variable changes writers, so
// nearly every access is a directory transaction.
func DefaultManagerLoad() ManagerLoadConfig {
	return ManagerLoadConfig{Hosts: 8, Vars: 64, Rounds: 6, Seed: 21}
}

// ManagerLoad runs the workload under one directory placement (homeOf is
// dsm.Options.HomeOf: dsm.HomeCentral homes every minipage at host 0,
// the paper's manager) and reports how
// the directory requests spread across hosts. The program is DRF and
// phase-deterministic: in round r variable v is written by host
// (v+r) mod hosts, then every host reads the full table — so the final
// contents (and the checksum) are independent of the placement.
func ManagerLoad(cfg ManagerLoadConfig, homeOf func(id, hosts int) int) (ManagerLoadResult, error) {
	var res ManagerLoadResult
	if cfg.Hosts < 1 {
		return res, fmt.Errorf("bench: manager load needs at least one host, got %d", cfg.Hosts)
	}
	s, err := dsm.New("millipage", dsm.Options{
		Hosts:      cfg.Hosts,
		SharedSize: 1 << 20,
		Views:      16,
		Seed:       cfg.Seed,
		HomeOf:     homeOf,
	})
	if err != nil {
		return res, err
	}
	vas := make([]uint64, cfg.Vars)
	sum := fnv.New64a()
	err = s.Run(func(th *dsm.Thread) {
		if th.Host() == 0 {
			for v := range vas {
				vas[v] = th.Malloc(64)
				th.WriteU32(vas[v], uint32(v))
			}
		}
		th.Barrier()
		for r := 0; r < cfg.Rounds; r++ {
			for v := 0; v < cfg.Vars; v++ {
				if (v+r)%cfg.Hosts == th.Host() {
					th.WriteU32(vas[v], th.ReadU32(vas[v])*31+uint32(r+1))
				}
			}
			th.Barrier()
			for v := 0; v < cfg.Vars; v++ {
				_ = th.ReadU32(vas[v])
			}
			th.Barrier()
		}
		if th.Host() == 0 {
			var buf [4]byte
			for v := range vas {
				val := th.ReadU32(vas[v])
				buf[0], buf[1], buf[2], buf[3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
				sum.Write(buf[:])
			}
		}
	})
	if err != nil {
		return res, err
	}
	res.Elapsed = s.Elapsed()
	res.Checksum = sum.Sum64()
	for i := 0; i < cfg.Hosts; i++ {
		st := s.Host(i).Stats
		res.PerShard = append(res.PerShard, st.ReadReqs+st.WriteReqs)
	}
	return res, nil
}

// ManagerLoadCompare runs the workload under central and home-based
// management and renders the comparison: identical application results,
// different directory load placement.
func ManagerLoadCompare(w io.Writer, cfg ManagerLoadConfig) error {
	modes := []struct {
		name   string
		homeOf func(id, hosts int) int
	}{{"central", dsm.HomeCentral}, {"home-based", dsm.HomeMod}}
	rows, err := sweep(len(modes), func(i int) (ManagerLoadResult, error) {
		return ManagerLoad(cfg, modes[i].homeOf)
	})
	if err != nil {
		return err
	}
	central, homed := rows[0], rows[1]
	fmt.Fprintf(w, "Manager load: %d hosts, %d variables, %d write-heavy rounds\n",
		cfg.Hosts, cfg.Vars, cfg.Rounds)
	fmt.Fprintf(w, "%-12s %12s %10s %-28s %18s\n",
		"management", "elapsed", "max/mean", "requests per shard", "checksum")
	for i, r := range rows {
		fmt.Fprintf(w, "%-12v %12v %10.2f %-28s %#18x\n",
			modes[i].name, r.Elapsed, r.MaxMeanRatio(), fmt.Sprint(r.PerShard), r.Checksum)
	}
	if central.Checksum != homed.Checksum {
		return fmt.Errorf("bench: management modes diverged: checksums %#x vs %#x",
			central.Checksum, homed.Checksum)
	}
	fmt.Fprintln(w, "(identical checksums: the sharded directory changes where protocol")
	fmt.Fprintln(w, " work happens, never what the application computes)")
	return nil
}
