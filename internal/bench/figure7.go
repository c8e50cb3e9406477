package bench

import (
	"fmt"
	"io"

	"millipage/internal/apps"
	"millipage/internal/sim"
)

// Figure7Point is one chunking configuration of the WATER study.
type Figure7Point struct {
	Hosts      int
	ChunkLevel int // 0 means "none": page-granularity allocation
	Timed      sim.Duration
	Competing  uint64
	Faults     uint64 // read + write faults
	Efficiency float64
}

// Figure7Config controls the chunking sweep.
type Figure7Config struct {
	Hosts   []int // the paper plots 4 and 8 hosts
	Levels  []int // chunking levels; 0 encodes "none"
	Scale   float64
	Seed    int64
	Repeats int // seeds averaged per point (sweeper jitter is random)

	CentralManagement bool // every minipage homed on host 0 (Placement)
}

// DefaultFigure7 matches the paper: chunking levels 1..6 plus "none",
// on 4 and 8 hosts, averaged over three seeds.
func DefaultFigure7() Figure7Config {
	return Figure7Config{
		Hosts:   []int{4, 8},
		Levels:  []int{1, 2, 3, 4, 5, 6, 0},
		Scale:   1.0,
		Seed:    1,
		Repeats: 3,
	}
}

// Figure7 runs WATER across chunking levels. Every point is averaged
// over cfg.Repeats seeds; efficiency is normalized to the best level per
// host count, as in the paper's figure.
func Figure7(cfg Figure7Config, progress io.Writer) ([]Figure7Point, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	if cfg.Repeats < 1 {
		cfg.Repeats = 1
	}
	// Every (host, level, repeat) cell is an independent WATER run;
	// flatten the whole grid and fan it out, then aggregate in grid order
	// so averages, efficiency normalization and progress output match a
	// sequential sweep exactly.
	type cell struct {
		h, lvl, r int
	}
	var grid []cell
	for _, h := range cfg.Hosts {
		for _, lvl := range cfg.Levels {
			for r := 0; r < cfg.Repeats; r++ {
				grid = append(grid, cell{h, lvl, r})
			}
		}
	}
	results, err := sweep(len(grid), func(i int) (apps.Result, error) {
		c := grid[i]
		p := apps.Params{Hosts: c.h, Scale: cfg.Scale, Seed: cfg.Seed + int64(c.r)*101, ChunkLevel: c.lvl, CentralManagement: cfg.CentralManagement}
		if c.lvl == 0 {
			p.ChunkLevel = 0
			p.PageGrain = true // "no false-sharing control"
		}
		res, err := apps.RunWATER(p)
		if err != nil {
			return res, fmt.Errorf("WATER chunk=%d on %d hosts: %w", c.lvl, c.h, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Figure7Point
	ri := 0
	for _, h := range cfg.Hosts {
		var best sim.Duration
		idx := len(out)
		for _, lvl := range cfg.Levels {
			var timed sim.Duration
			var competing, faults uint64
			for r := 0; r < cfg.Repeats; r++ {
				res := results[ri]
				ri++
				timed += res.Timed
				competing += res.Report.CompetingRequests
				faults += res.Report.ReadFaults + res.Report.WriteFaults
			}
			n := sim.Duration(cfg.Repeats)
			pt := Figure7Point{
				Hosts:      h,
				ChunkLevel: lvl,
				Timed:      timed / n,
				Competing:  competing / uint64(cfg.Repeats),
				Faults:     faults / uint64(cfg.Repeats),
			}
			out = append(out, pt)
			if best == 0 || (pt.Timed > 0 && pt.Timed < best) {
				best = pt.Timed
			}
			if progress != nil {
				fmt.Fprintf(progress, "  WATER %d hosts chunk=%-4s timed=%10v competing=%5d faults=%6d\n",
					h, chunkLabel(lvl), pt.Timed, pt.Competing, pt.Faults)
			}
		}
		for i := idx; i < len(out); i++ {
			if out[i].Timed > 0 {
				out[i].Efficiency = float64(best) / float64(out[i].Timed)
			}
		}
	}
	return out, nil
}

func chunkLabel(lvl int) string {
	if lvl == 0 {
		return "none"
	}
	return fmt.Sprintf("%d", lvl)
}

// WriteFigure7 renders the chunking study in the paper's terms: competing
// requests and read/write faults per chunking level, with efficiency
// relative to the best level.
func WriteFigure7(w io.Writer, cfg Figure7Config, pts []Figure7Point) {
	fmt.Fprintln(w, "Figure 7: the effect of chunking in WATER")
	fmt.Fprintf(w, "%-7s %-7s %12s %10s %11s\n", "hosts", "chunk", "competing", "faults", "efficiency")
	for _, p := range pts {
		fmt.Fprintf(w, "%-7d %-7s %12d %10d %11.2f\n",
			p.Hosts, chunkLabel(p.ChunkLevel), p.Competing, p.Faults, p.Efficiency)
	}
	fmt.Fprintln(w, "(paper: competing requests rise with chunking — 21 unchunked to 601 at")
	fmt.Fprintln(w, " \"none\"; faults fall; the best efficiency is at level 4 on 4 hosts and")
	fmt.Fprintln(w, " 5 on 8 hosts)")
}
