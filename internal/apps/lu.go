package apps

import (
	"encoding/binary"
	"math"

	millipage "millipage"
	"millipage/internal/sim"
)

// LU: SPLASH-2 LU-contiguous — blocked dense LU factorization without
// pivoting. The paper's input is a 1024x1024 matrix in 32x32 blocks of
// 4 KB: "it builds a matrix by allocating sub-blocks ... the size of a
// minipage may be set equal to that of a 4KB page" (Section 4.3), so LU
// needs only one view (Table 2).
//
// Blocks are assigned to threads round-robin. Each step k factors the
// diagonal block, solves the perimeter blocks against it, and updates the
// interior; three barriers per step. The two prefetch calls the paper
// inserted during the LU computation (Section 4.3.1) appear in the
// interior-update loop: the row-k and column-k perimeter blocks are
// prefetched before they are consumed.

const (
	luNFull   = 1024
	luBlock   = 32
	luElems   = luBlock * luBlock
	luBlockSz = luElems * 4 // float32: the paper's 4 KB block
)

// RunLU executes blocked LU on p.Hosts hosts.
func RunLU(p Params) (Result, error) {
	p = p.withDefaults()
	n := scaled(luNFull, p.Scale, 4*luBlock)
	n = (n / luBlock) * luBlock
	nb := n / luBlock // blocks per dimension

	// One view is Table 2's value: a block is a full page.
	cluster, err := p.newCluster(nb*nb*luBlockSz+(64<<10), 1, 0)
	if err != nil {
		return Result{}, err
	}

	blockAddr := make([]millipage.Addr, nb*nb)
	addr := func(bi, bj int) millipage.Addr { return blockAddr[bi*nb+bj] }
	var timed sim.Duration
	var check float64

	report, err := cluster.Run(func(w *millipage.Worker) {
		T := w.NumThreads()
		me := w.ThreadID()
		owner := func(bi, bj int) int { return (bi*nb + bj) % T }

		if me == 0 {
			for i := range blockAddr {
				blockAddr[i] = w.Malloc(luBlockSz)
			}
		}
		w.Barrier()
		// Each thread initializes the blocks it owns (first touch where
		// the block is used, as in SPLASH-2): a deterministic diagonally
		// dominant matrix, stable without pivoting.
		blk := make([]float32, luElems)
		buf := new([luBlockSz]byte) // scratch for a block's bytes on their way in or out
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				if owner(bi, bj) != me {
					continue
				}
				for x := 0; x < luBlock; x++ {
					for y := 0; y < luBlock; y++ {
						gi, gj := bi*luBlock+x, bj*luBlock+y
						v := float32(1.0 / (1.0 + float64(gi+gj)))
						if gi == gj {
							v += float32(n)
						}
						blk[x*luBlock+y] = v
					}
				}
				writeBlockF32(w, addr(bi, bj), blk, buf)
			}
		}
		w.Barrier()
		w.ResetStats()
		start := w.Now()

		diag := make([]float32, luElems)
		row := make([]float32, luElems)
		col := make([]float32, luElems)
		cur := make([]float32, luElems)

		for k := 0; k < nb; k++ {
			// Factor the diagonal block.
			if owner(k, k) == me {
				readBlockF32(w, addr(k, k), cur, buf)
				factorBlock(cur)
				writeBlockF32(w, addr(k, k), cur, buf)
				w.Compute(sim.Duration(luBlock*luBlock*luBlock/3) * luMADD)
			}
			w.Barrier()

			// Perimeter: row k and column k solve against the diagonal.
			perimDone := false
			for t := k + 1; t < nb; t++ {
				if owner(k, t) == me {
					if !perimDone {
						readBlockF32(w, addr(k, k), diag, buf)
						perimDone = true
					}
					readBlockF32(w, addr(k, t), cur, buf)
					lowerSolve(diag, cur)
					writeBlockF32(w, addr(k, t), cur, buf)
					w.Compute(sim.Duration(luBlock*luBlock*luBlock/2) * luMADD)
				}
				if owner(t, k) == me {
					if !perimDone {
						readBlockF32(w, addr(k, k), diag, buf)
						perimDone = true
					}
					readBlockF32(w, addr(t, k), cur, buf)
					upperSolve(diag, cur)
					writeBlockF32(w, addr(t, k), cur, buf)
					w.Compute(sim.Duration(luBlock*luBlock*luBlock/2) * luMADD)
				}
			}
			w.Barrier()

			// Interior update: A[i][j] -= A[i][k] * A[k][j]. The paper's
			// two prefetch calls (Section 4.3.1): issue asynchronous
			// fetches of the row-k and column-k perimeter blocks this
			// thread will consume, so they arrive while earlier updates
			// compute.
			for t := k + 1; t < nb; t++ {
				for bj := k + 1; bj < nb; bj++ {
					if owner(t, bj) == me {
						w.Prefetch(addr(t, k), luBlockSz)  // prefetch call 1
						w.Prefetch(addr(k, bj), luBlockSz) // prefetch call 2
					}
				}
			}
			for bi := k + 1; bi < nb; bi++ {
				for bj := k + 1; bj < nb; bj++ {
					if owner(bi, bj) != me {
						continue
					}
					readBlockF32(w, addr(bi, k), col, buf)
					readBlockF32(w, addr(k, bj), row, buf)
					readBlockF32(w, addr(bi, bj), cur, buf)
					matmulSub(cur, col, row)
					writeBlockF32(w, addr(bi, bj), cur, buf)
					w.Compute(sim.Duration(luBlock*luBlock*luBlock) * luMADD)
				}
			}
			w.Barrier()
		}
		if me == 0 {
			timed = w.Now() - start
			// Checksum the factored matrix (bitwise deterministic across
			// host counts: every block sees the same update sequence).
			for bi := 0; bi < nb; bi++ {
				readBlockF32(w, addr(bi, bi), cur, buf)
				for _, v := range cur {
					check += float64(v)
				}
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Name: "LU", Hosts: p.Hosts, Report: report, Timed: timed, Check: check, Checked: !math.IsNaN(check) && check != 0, Engine: EngineShape{Counters: cluster.EngineCounters()}}, nil
}

// factorBlock performs an in-place unblocked LU (no pivoting) on a
// diagonal block.
func factorBlock(a []float32) {
	for k := 0; k < luBlock; k++ {
		pivot := a[k*luBlock+k]
		for i := k + 1; i < luBlock; i++ {
			a[i*luBlock+k] /= pivot
			lik := a[i*luBlock+k]
			for j := k + 1; j < luBlock; j++ {
				a[i*luBlock+j] -= lik * a[k*luBlock+j]
			}
		}
	}
}

// lowerSolve solves L*X = B in place for a row-perimeter block, where L
// is the unit lower triangle of the factored diagonal block.
func lowerSolve(diag, b []float32) {
	for k := 0; k < luBlock; k++ {
		for i := k + 1; i < luBlock; i++ {
			lik := diag[i*luBlock+k]
			for j := 0; j < luBlock; j++ {
				b[i*luBlock+j] -= lik * b[k*luBlock+j]
			}
		}
	}
}

// upperSolve solves X*U = B in place for a column-perimeter block, where
// U is the upper triangle of the factored diagonal block.
func upperSolve(diag, b []float32) {
	for j := 0; j < luBlock; j++ {
		ujj := diag[j*luBlock+j]
		for i := 0; i < luBlock; i++ {
			b[i*luBlock+j] /= ujj
		}
		for jj := j + 1; jj < luBlock; jj++ {
			ujjj := diag[j*luBlock+jj]
			for i := 0; i < luBlock; i++ {
				b[i*luBlock+jj] -= b[i*luBlock+j] * ujjj
			}
		}
	}
}

// matmulSub computes cur -= col*row (the blocked trailing update).
func matmulSub(cur, col, row []float32) {
	for i := 0; i < luBlock; i++ {
		for k := 0; k < luBlock; k++ {
			cik := col[i*luBlock+k]
			if cik == 0 {
				continue
			}
			base := k * luBlock
			out := i * luBlock
			for j := 0; j < luBlock; j++ {
				cur[out+j] -= cik * row[base+j]
			}
		}
	}
}

// readBlockF32 and writeBlockF32 move a block between shared memory and its
// float32 form through buf, the thread's scratch for the block's bytes.
func readBlockF32(w *millipage.Worker, addr millipage.Addr, dst []float32, buf *[luBlockSz]byte) {
	w.Read(addr, buf[:])
	decodeBlockF32((*[luElems]float32)(dst), buf)
}

func writeBlockF32(w *millipage.Worker, addr millipage.Addr, src []float32, buf *[luBlockSz]byte) {
	encodeBlockF32(buf, (*[luElems]float32)(src))
	w.Write(addr, buf[:])
}

// decodeBlockF32 and encodeBlockF32 are the block's codec, little-endian
// float32 elements between arrays of fixed size: no bounds check in the loops.
func decodeBlockF32(dst *[luElems]float32, buf *[luBlockSz]byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
}

func encodeBlockF32(buf *[luBlockSz]byte, src *[luElems]float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
}
