// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus micro-benchmarks of the substrate itself.
//
// Simulation benchmarks report virtual-time results through
// b.ReportMetric (sim-us, speedup, slowdown); wall-clock ns/op measures
// the simulator, not the modeled system. Benchmarks default to reduced
// problem scales so `go test -bench=.` completes quickly; the cmd/millipage
// binary runs the full-scale versions.
package millipage_test

import (
	"io"
	"testing"

	millipage "millipage"
	"millipage/internal/apps"
	"millipage/internal/bench"
	"millipage/internal/mmu"
	"millipage/internal/twindiff"
)

// --- Table 1 / Section 4.2: basic operation costs ---------------------

func benchFetch(b *testing.B, size int) {
	b.Helper()
	var total float64
	for i := 0; i < b.N; i++ {
		cluster, err := millipage.NewCluster(millipage.Config{
			Hosts: 2, SharedMemory: 1 << 20, Views: 4, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		var addr millipage.Addr
		report, err := cluster.Run(func(w *millipage.Worker) {
			if w.Host() == 0 {
				addr = w.Malloc(size)
				w.Write(addr, make([]byte, size))
			}
			w.Barrier()
			if w.Host() == 1 {
				buf := make([]byte, size)
				w.Read(addr, buf)
			}
			w.Barrier()
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range report.Threads {
			if tr.Host == 1 {
				total += tr.ReadFault.Microseconds()
			}
		}
	}
	b.ReportMetric(total/float64(b.N), "sim-us/fetch")
}

// BenchmarkTable1ReadFetch128 regenerates the 128-byte minipage read
// fetch (paper Section 4.2: 204 us).
func BenchmarkTable1ReadFetch128(b *testing.B) { benchFetch(b, 128) }

// BenchmarkTable1ReadFetch4K regenerates the 4 KB minipage read fetch
// (paper: 314 us).
func BenchmarkTable1ReadFetch4K(b *testing.B) { benchFetch(b, 4096) }

// BenchmarkTable1Barrier8 regenerates the 8-host barrier (paper: 153 us).
func BenchmarkTable1Barrier8(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		cluster, err := millipage.NewCluster(millipage.Config{
			Hosts: 8, SharedMemory: 1 << 16, Views: 1, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		const trials = 8
		report, err := cluster.Run(func(w *millipage.Worker) {
			for t := 0; t < trials; t++ {
				w.Barrier()
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		total += report.Threads[0].Synch.Microseconds() / trials
	}
	b.ReportMetric(total/float64(b.N), "sim-us/barrier")
}

// BenchmarkTable1DiffCreate measures the real run-length diff
// implementation on a 4 KB page (paper's modeled cost: 250 us on the
// testbed; ns/op here is this machine's cost, showing what a diff-based
// protocol would spend CPU on).
func BenchmarkTable1DiffCreate(b *testing.B) {
	page := make([]byte, 4096)
	twin := twindiff.Twin(page)
	for i := 0; i < 4096; i += 64 {
		page[i] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := twindiff.Diff(twin, page); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: MultiView overhead --------------------------------------

func benchFigure5(b *testing.B, arrayBytes, views int) {
	cfg := mmu.PentiumII()
	var last float64
	for i := 0; i < b.N; i++ {
		tr := mmu.Traversal{ArrayBytes: arrayBytes, Views: views, Passes: 1, Warmup: 1}
		last, _, _ = tr.Slowdown(cfg)
	}
	b.ReportMetric(last, "slowdown")
}

// BenchmarkFigure5BelowBreak: 1 MB at 32 views (paper: < 4% overhead).
func BenchmarkFigure5BelowBreak(b *testing.B) { benchFigure5(b, 1<<20, 32) }

// BenchmarkFigure5AtBreak: 16 MB at 32 views, the predicted breaking
// point for 16 MB (n*N = 512).
func BenchmarkFigure5AtBreak(b *testing.B) { benchFigure5(b, 16<<20, 32) }

// BenchmarkFigure5BeyondBreak: 4 MB at 496 views (paper: severe,
// linear-in-n slowdown).
func BenchmarkFigure5BeyondBreak(b *testing.B) { benchFigure5(b, 4<<20, 496) }

// --- Figure 6 / Table 2: the application suite --------------------------

func benchApp(b *testing.B, run apps.Runner, hosts int, scale float64, chunk int) {
	b.Helper()
	var speedup float64
	for i := 0; i < b.N; i++ {
		p := apps.Params{Hosts: 1, Scale: scale, Seed: 1, ChunkLevel: chunk}
		r1, err := run(p)
		if err != nil {
			b.Fatal(err)
		}
		p.Hosts = hosts
		rn, err := run(p)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(r1.Timed) / float64(rn.Timed)
	}
	b.ReportMetric(speedup, "speedup")
}

// The Figure 6 speedup points at reduced scale (4 hosts; full scale and
// 1-8 hosts via `cmd/millipage apps`).
func BenchmarkFigure6SOR(b *testing.B)   { benchApp(b, apps.RunSOR, 4, 0.25, 0) }
func BenchmarkFigure6IS(b *testing.B)    { benchApp(b, apps.RunIS, 4, 0.25, 0) }
func BenchmarkFigure6WATER(b *testing.B) { benchApp(b, apps.RunWATER, 4, 0.25, 4) }
func BenchmarkFigure6LU(b *testing.B)    { benchApp(b, apps.RunLU, 4, 0.25, 0) }
func BenchmarkFigure6TSP(b *testing.B)   { benchApp(b, apps.RunTSP, 4, 0.7, 0) }

// --- Figure 7: chunking in WATER ----------------------------------------

// BenchmarkFigure7Chunking sweeps WATER chunking levels at reduced scale
// and reports the best level's advantage over unchunked.
func BenchmarkFigure7Chunking(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		cfg := bench.Figure7Config{Hosts: []int{4}, Levels: []int{1, 4}, Scale: 0.25, Seed: 1}
		pts, err := bench.Figure7(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if pts[0].Timed > 0 && pts[1].Timed > 0 {
			gain = float64(pts[0].Timed) / float64(pts[1].Timed)
		}
	}
	b.ReportMetric(gain, "chunk4-gain")
}

// --- Substrate micro-benchmarks (real wall-clock Go performance) -------

// BenchmarkMMUTraversal measures the hardware-model throughput
// (accesses/second of the TLB+cache simulation).
func BenchmarkMMUTraversal(b *testing.B) {
	cfg := mmu.PentiumII()
	m := mmu.New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(uint64(i*7)%(1<<26), uint64(i*13)%(1<<26))
	}
}
