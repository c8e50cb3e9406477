package bench

import (
	"fmt"
	"io"
	"strings"

	"millipage/internal/apps"
	"millipage/internal/sim"
)

// AppRun is one application execution in the Figure 6 sweep.
type AppRun struct {
	Name    string
	Hosts   int
	Timed   sim.Duration
	Speedup float64
	Result  apps.Result
}

// Figure6Config controls the application sweep.
type Figure6Config struct {
	Protocol   string  // coherence protocol ("" = millipage; "ivy", "lrc-mw")
	Hosts      []int   // cluster sizes (paper: 1..8)
	Scale      float64 // 1.0 = the paper's data sets
	Seed       int64
	ChunkWATER int // chunking level for WATER (paper uses chunking for its results)
	Only       string
}

// DefaultFigure6 matches the paper's runs: 1, 2, 4, 8 hosts at full scale,
// WATER chunked at the level the paper found optimal for 8 hosts (5).
func DefaultFigure6() Figure6Config {
	return Figure6Config{Hosts: []int{1, 2, 4, 8}, Scale: 1.0, Seed: 1, ChunkWATER: 5}
}

// Checked returns cfg as Figure6 will run it — a zero Scale is the
// paper's 1.0 — or an error when Only names no suite application.
func (cfg Figure6Config) Checked() (Figure6Config, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	var names []string
	for _, app := range apps.Suite() {
		if cfg.Only == "" || cfg.Only == app.Name {
			return cfg, nil
		}
		names = append(names, app.Name)
	}
	return cfg, fmt.Errorf("bench: Only = %q names no suite application (want one of %s)", cfg.Only, strings.Join(names, ", "))
}

// Figure6 runs the five-application suite over the host counts and
// returns speedups relative to each application's 1-host run. The grid's
// cells are independent simulations, so they run Workers-wide; speedups
// and progress lines are derived afterwards in grid order, making the
// output byte-identical to a sequential sweep.
func Figure6(cfg Figure6Config, progress io.Writer) ([]AppRun, error) {
	cfg, err := cfg.Checked()
	if err != nil {
		return nil, err
	}
	type cell struct {
		app   apps.App
		hosts int
	}
	var grid []cell
	for _, app := range apps.Suite() {
		if cfg.Only != "" && cfg.Only != app.Name {
			continue
		}
		for _, h := range cfg.Hosts {
			grid = append(grid, cell{app, h})
		}
	}
	results, err := sweep(len(grid), func(i int) (apps.Result, error) {
		c := grid[i]
		p := apps.Params{Protocol: cfg.Protocol, Hosts: c.hosts, Scale: cfg.Scale, Seed: cfg.Seed}
		if c.app.Name == "WATER" {
			p.ChunkLevel = cfg.ChunkWATER
		}
		res, err := c.app.Run(p)
		if err != nil {
			return res, fmt.Errorf("%s on %d hosts: %w", c.app.Name, c.hosts, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var out []AppRun
	var base sim.Duration
	for i, c := range grid {
		res := results[i]
		if c.hosts == cfg.Hosts[0] {
			base = res.Timed
		}
		sp := 0.0
		if res.Timed > 0 {
			sp = float64(base) / float64(res.Timed) * float64(cfg.Hosts[0])
		}
		out = append(out, AppRun{Name: c.app.Name, Hosts: c.hosts, Timed: res.Timed, Speedup: sp, Result: res})
		if progress != nil {
			fmt.Fprintf(progress, "  %-6s %d hosts: %10v  speedup %.2f\n", c.app.Name, c.hosts, res.Timed, sp)
		}
	}
	return out, nil
}

// WriteFigure6 renders the speedup table (Figure 6 left) and the
// execution-time breakdown at the largest host count (Figure 6 right).
func WriteFigure6(w io.Writer, cfg Figure6Config, runs []AppRun) {
	fmt.Fprintln(w, "Figure 6 (left): speedups")
	fmt.Fprintf(w, "%-8s", "app")
	for _, h := range cfg.Hosts {
		fmt.Fprintf(w, " %6dH", h)
	}
	fmt.Fprintln(w)
	for _, app := range apps.Suite() {
		if cfg.Only != "" && cfg.Only != app.Name {
			continue
		}
		fmt.Fprintf(w, "%-8s", app.Name)
		for _, h := range cfg.Hosts {
			for _, r := range runs {
				if r.Name == app.Name && r.Hosts == h {
					fmt.Fprintf(w, " %7.2f", r.Speedup)
				}
			}
		}
		fmt.Fprintln(w)
	}

	maxH := cfg.Hosts[len(cfg.Hosts)-1]
	fmt.Fprintf(w, "\nFigure 6 (right): execution breakdown at %d hosts\n", maxH)
	fmt.Fprintf(w, "%-8s %7s %9s %10s %11s %7s\n", "app", "comp%", "prefetch%", "readflt%", "writeflt%", "synch%")
	for _, r := range runs {
		if r.Hosts != maxH {
			continue
		}
		c, p, rf, wf, s := r.Result.Report.AvgBreakdown()
		fmt.Fprintf(w, "%-8s %7.1f %9.1f %10.1f %11.1f %7.1f\n",
			r.Name, c*100, p*100, rf*100, wf*100, s*100)
	}
}

// Table2 runs the suite once at the largest host count in the paper's
// Table 2 configuration (no chunking: the table reports per-allocation
// granularity) and renders the summary.
func Table2(w io.Writer, cfg Figure6Config, _ []AppRun) {
	maxH := cfg.Hosts[len(cfg.Hosts)-1]
	var suite []apps.App
	for _, app := range apps.Suite() {
		if cfg.Only != "" && cfg.Only != app.Name {
			continue
		}
		suite = append(suite, app)
	}
	results, err := sweep(len(suite), func(i int) (apps.Result, error) {
		return suite[i].Run(apps.Params{Protocol: cfg.Protocol, Hosts: maxH, Scale: cfg.Scale, Seed: cfg.Seed})
	})
	if err != nil {
		fmt.Fprintf(w, "Table 2: %v\n", err)
		return
	}
	var runs []AppRun
	for i, app := range suite {
		runs = append(runs, AppRun{Name: app.Name, Hosts: maxH, Result: results[i]})
	}
	fmt.Fprintf(w, "Table 2: application suite at %d hosts (paper values in parentheses)\n", maxH)
	paper := map[string][5]string{
		"SOR":   {"8 MB", "16", "a row, 256 bytes", "21", "-"},
		"IS":    {"2 KB", "8", "256 bytes", "90", "-"},
		"WATER": {"336 KB", "6", "a molecule, 672 bytes", "29", "6720"},
		"LU":    {"8 MB", "1", "a block, 4 KB", "577", "-"},
		"TSP":   {"785 KB", "27", "a tour, 148 bytes", "3", "681"},
	}
	fmt.Fprintf(w, "%-7s %-22s %-12s %-14s %-12s %s\n",
		"app", "shared mem", "views", "barriers", "locks", "minipages")
	for _, r := range runs {
		if r.Hosts != maxH {
			continue
		}
		rep := r.Result.Report
		p := paper[r.Name]
		fmt.Fprintf(w, "%-7s %-22s %-12s %-14s %-12s %d\n",
			r.Name,
			fmt.Sprintf("%s (%s)", byteLabel(rep.SharedUsed), p[0]),
			fmt.Sprintf("%d (%s)", rep.ViewsUsed, p[1]),
			fmt.Sprintf("%d (%s)", rep.Barriers, p[3]),
			fmt.Sprintf("%d (%s)", rep.LockAcquisitions, p[4]),
			rep.Minipages)
	}
}

func byteLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.0f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
