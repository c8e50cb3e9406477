package apps

import (
	"encoding/binary"
	"math"

	millipage "millipage"
	"millipage/internal/sim"
)

// SOR: red/black successive over-relaxation from the TreadMarks benchmark
// suite. The paper's input is a 32768x64 matrix iterated to 21 barriers
// (10 red/black iterations plus the start barrier); rows are allocated
// one by one, so each 256-byte row is its own minipage and the row is the
// sharing unit — "there was no need to modify SOR" (Section 4.3).
//
// The matrix is partitioned into contiguous row bands, one per thread.
// Each phase updates half the interior rows (odd rows in the red phase,
// even in the black) from their immediate neighbors; only the band
// boundary rows travel between hosts.

const (
	sorRowsFull  = 32768
	sorCols      = 64
	sorIterFull  = 10
	sorRowBytes  = sorCols * 4 // float32 elements
	sorCompBatch = 64          // rows per virtual-time charge
)

// RunSOR executes SOR on p.Hosts hosts at p.Scale of the paper's input.
func RunSOR(p Params) (Result, error) {
	p = p.withDefaults()
	rows := scaled(sorRowsFull, p.Scale, 64)
	iters := sorIterFull

	// 16 views = 4096/256: Table 2's value.
	cluster, err := p.newCluster(rows*sorRowBytes+(64<<10), 16, 0)
	if err != nil {
		return Result{}, err
	}

	rowAddr := make([]millipage.Addr, rows)
	var timed sim.Duration
	var check float64

	report, err := cluster.Run(func(w *millipage.Worker) {
		// Host 0 allocates one minipage per row; each thread then
		// initializes its own band (first touch on the computing host, as
		// the original benchmark does), so the timed section starts with
		// rows owned where they are used. Boundary condition: hot top
		// edge, cold interior.
		if w.ThreadID() == 0 {
			for r := range rowAddr {
				rowAddr[r] = w.Malloc(sorRowBytes)
			}
		}
		w.Barrier()
		lo, hi := band(rows, w.NumThreads(), w.ThreadID())
		{
			cold := make([]byte, sorRowBytes)
			hot := make([]byte, sorRowBytes)
			for c := 0; c < sorCols; c++ {
				binary.LittleEndian.PutUint32(hot[4*c:], math.Float32bits(1.0))
			}
			for r := lo; r < hi; r++ {
				if r == 0 {
					w.Write(rowAddr[r], hot)
				} else {
					w.Write(rowAddr[r], cold)
				}
			}
		}
		w.Barrier() // barrier 1 of the paper's 21
		w.ResetStats()
		start := w.Now()
		cur := make([]byte, sorRowBytes)
		up := make([]byte, sorRowBytes)
		down := make([]byte, sorRowBytes)
		out := make([]byte, sorRowBytes)

		for it := 0; it < iters; it++ {
			for phase := 0; phase < 2; phase++ {
				var comp sim.Duration
				n := 0
				for r := lo; r < hi; r++ {
					if r == 0 || r == rows-1 || r%2 != phase {
						continue
					}
					w.Read(rowAddr[r-1], up)
					w.Read(rowAddr[r], cur)
					w.Read(rowAddr[r+1], down)
					sorUpdateRow(up, cur, down, out)
					w.Write(rowAddr[r], out)
					comp += sorCols * sorElem
					if n++; n == sorCompBatch {
						w.Compute(comp)
						comp, n = 0, 0
					}
				}
				if comp > 0 {
					w.Compute(comp)
				}
				w.Barrier() // 2 per iteration: 21 total with the start barrier
			}
		}
		if w.ThreadID() == 0 {
			timed = w.Now() - start
			// Checksum a sample of rows; equal across host counts iff the
			// DSM kept the matrix coherent.
			buf := make([]byte, sorRowBytes)
			for r := 0; r < rows; r += 97 {
				w.Read(rowAddr[r], buf)
				for c := 0; c < sorCols; c++ {
					check += float64(sorElemAt((*[sorRowBytes]byte)(buf), c))
				}
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Name: "SOR", Hosts: p.Hosts, Report: report, Timed: timed, Check: check, Checked: check > 0, Engine: EngineShape{Counters: cluster.EngineCounters()}}, nil
}

// band returns thread t's contiguous row range out of n threads.
func band(rows, n, t int) (lo, hi int) {
	per := rows / n
	lo = t * per
	hi = lo + per
	if t == n-1 {
		hi = rows
	}
	return lo, hi
}

// sorUpdateRow computes one relaxation step for a row from its vertical
// neighbors (the 64-column rows make horizontal terms intra-row).
func sorUpdateRow(up, cur, down, out []byte) {
	// The rows are taken as the fixed-size arrays they are, so the column
	// loop decodes and encodes with no bounds check. The center row rides
	// in a rolling three-element window (prev, curv, next), so every
	// element of every row is decoded exactly once — the naive form
	// re-decodes cur twice per column through the clamped left/right
	// terms. The summation keeps the original operand order, so results
	// are bit-identical.
	u, m, d, o := (*[sorRowBytes]byte)(up), (*[sorRowBytes]byte)(cur), (*[sorRowBytes]byte)(down), (*[sorRowBytes]byte)(out)
	prev := sorElemAt(m, 0) // left term clamps to column 0 at the edge
	curv := prev
	for c := 0; c < sorCols; c++ {
		next := curv // right term clamps to the last column
		if c+1 < sorCols {
			next = sorElemAt(m, c+1)
		}
		v := 0.25 * (sorElemAt(u, c) + sorElemAt(d, c) + prev + next)
		binary.LittleEndian.PutUint32(o[4*c:], math.Float32bits(v))
		prev = curv
		curv = next
	}
}

// sorElemAt decodes column c of a row.
func sorElemAt(row *[sorRowBytes]byte, c int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(row[4*c:]))
}
