package apps

import (
	"math"

	millipage "millipage"
	"millipage/internal/sim"
)

// WATER: SPLASH-2 Water-nsquared with a simplified (but real) pairwise
// force field. The paper's input is 512 molecules; its modification
// allocates every molecule separately so the 672-byte molecule is the
// sharing unit: "we altered the main function so that each molecule will
// be allocated separately" (Section 4.3). Config.ChunkLevel aggregates
// several molecules per minipage — the Figure 7 study.
//
// Each iteration runs the classic phases, seven barriers per iteration
// (29 in all with the start barrier, matching Table 2):
//
//	predict positions (write own) | intra-molecular forces (compute) |
//	inter-molecular forces: the read phase fetches every partner
//	molecule's position, each molecule interacting with the next n/2 in
//	the ring | combine foreign force contributions under per-molecule
//	locks (the bulk of Table 2's 6720 lock operations) | correct
//	velocities (write own) | kinetic-energy reduction under a global
//	lock | bookkeeping.

const (
	waterMolsFull = 512
	waterMolBytes = 672
	waterIters    = 4

	// Field offsets within a molecule (float64 triples).
	wPos   = 0
	wVel   = 24
	wForce = 48
	wAux   = 624 // per-molecule partial sums, written during the read phase

	waterEnergyLock = 1 << 20 // lock id namespace separate from molecules
)

// RunWATER executes Water-nsquared on p.Hosts hosts. p.ChunkLevel is the
// paper's chunking switch (0/1 = one molecule per minipage).
func RunWATER(p Params) (Result, error) {
	p = p.withDefaults()
	mols := scaled(waterMolsFull, p.Scale, 32)

	// floor(4096/672) = 6, Table 2's value; chunked minipages need fewer,
	// so 6 remains sufficient for every chunking level.
	views := 6
	cluster, err := p.newCluster(mols*4096/4+(256<<10), views, p.ChunkLevel) // molecules plus slack
	if err != nil {
		return Result{}, err
	}

	molAddr := make([]millipage.Addr, mols)
	var energyAddr millipage.Addr
	var timed sim.Duration
	var check float64

	report, err := cluster.Run(func(w *millipage.Worker) {
		if w.ThreadID() == 0 {
			for m := range molAddr {
				molAddr[m] = w.Malloc(waterMolBytes)
			}
			energyAddr = w.Malloc(64)
			// Deterministic initial lattice positions and velocities.
			for m := range molAddr {
				x := float64(m%8) + 0.37
				y := float64((m/8)%8) + 0.11
				z := float64(m/64) + 0.73
				writeTriple(w, molAddr[m]+wPos, x, y, z)
				writeTriple(w, molAddr[m]+wVel, 0.01*math.Sin(float64(m)), 0.01*math.Cos(float64(m)), 0)
				writeTriple(w, molAddr[m]+wForce, 0, 0, 0)
			}
			w.WriteF64(energyAddr, 0)
		}
		w.Barrier() // start barrier (1 of 29)
		w.ResetStats()
		start := w.Now()

		lo, hi := band(mols, w.NumThreads(), w.ThreadID())
		own := hi - lo
		half := mols / 2
		const dt = 1e-3
		// Phase 3's force contributions per molecule, combined in phase 4.
		acc := make([][3]float64, mols)
		touched := make([]bool, mols)

		for it := 0; it < waterIters; it++ {
			// Phase 1: predict positions from velocities (write own).
			for m := lo; m < hi; m++ {
				x, y, z := readTriple(w, molAddr[m]+wPos)
				vx, vy, vz := readTriple(w, molAddr[m]+wVel)
				writeTriple(w, molAddr[m]+wPos, x+dt*vx, y+dt*vy, z+dt*vz)
				writeTriple(w, molAddr[m]+wForce, 0, 0, 0)
			}
			w.Compute(sim.Duration(own) * 300 * sim.Nanosecond)
			w.Barrier()

			// Phase 2: intra-molecular forces (pure computation).
			w.Compute(sim.Duration(own) * 10 * sim.Microsecond)
			w.Barrier()

			// Phase 3: inter-molecular forces — the read phase. Each of
			// our molecules interacts with the next half ring. With
			// composed views, the whole window is gang-fetched first
			// (Section 5: a coarse-grain view for the read phase over
			// fine-grain sharing units).
			if p.ComposedViews {
				spans := make([]millipage.Span, 0, half+own)
				for d := lo + 1; d < hi+half; d++ {
					spans = append(spans, millipage.Span{Addr: molAddr[d%mols], Size: waterMolBytes})
				}
				w.GangFetch(spans)
			}
			clear(acc)
			clear(touched)
			for m := lo; m < hi; m++ {
				xi, yi, zi := readTriple(w, molAddr[m]+wPos)
				var fx, fy, fz float64
				for d := 1; d <= half; d++ {
					j := (m + d) % mols
					xj, yj, zj := readTriple(w, molAddr[j]+wPos)
					gx, gy, gz := pairForce(xi, yi, zi, xj, yj, zj)
					fx += gx
					fy += gy
					fz += gz
					acc[j][0] -= gx
					acc[j][1] -= gy
					acc[j][2] -= gz
					touched[j] = true
				}
				acc[m][0] += fx
				acc[m][1] += fy
				acc[m][2] += fz
				touched[m] = true
				// Periodically write partial sums back during the read
				// phase, as the original Water does — the Write-Read
				// data race Perkovic & Keleher reported, which the paper
				// identifies as the source of its competing requests
				// (Section 4.4). At fine granularity only this molecule's
				// readers refetch; at coarse granularity the write
				// invalidates innocent neighbors on the same minipage.
				// The composed-views restructuring defers these writes out
				// of the read phase (they land with the phase-4 combine),
				// exactly the fine/coarse view arbitration Section 5
				// sketches.
				if m%8 == 0 && !p.ComposedViews {
					writeTriple(w, molAddr[m]+wAux, fx, fy, fz)
				}
				w.Compute(sim.Duration(half) * waterPair)
			}
			w.Barrier()

			// Phase 4: combine force contributions in molecule order
			// (deterministic lock acquisition). Every read-modify-write
			// goes under the molecule's lock — several hosts accumulate
			// into the same molecule concurrently.
			for j := 0; j < mols; j++ {
				if !touched[j] {
					continue
				}
				a := acc[j]
				w.Lock(j)
				fx, fy, fz := readTriple(w, molAddr[j]+wForce)
				writeTriple(w, molAddr[j]+wForce, fx+a[0], fy+a[1], fz+a[2])
				if p.ComposedViews && j >= lo && j < hi && j%8 == 0 {
					// The deferred partial-sum write (see phase 3).
					writeTriple(w, molAddr[j]+wAux, a[0], a[1], a[2])
				}
				w.Unlock(j)
			}
			w.Barrier()

			// Phase 5: correct velocities from forces (write own).
			for m := lo; m < hi; m++ {
				vx, vy, vz := readTriple(w, molAddr[m]+wVel)
				fx, fy, fz := readTriple(w, molAddr[m]+wForce)
				writeTriple(w, molAddr[m]+wVel, vx+dt*fx, vy+dt*fy, vz+dt*fz)
			}
			w.Compute(sim.Duration(own) * 300 * sim.Nanosecond)
			w.Barrier()

			// Phase 6: kinetic-energy reduction under the global lock.
			var ke float64
			for m := lo; m < hi; m++ {
				vx, vy, vz := readTriple(w, molAddr[m]+wVel)
				ke += vx*vx + vy*vy + vz*vz
			}
			w.Compute(sim.Duration(own) * 200 * sim.Nanosecond)
			w.Lock(waterEnergyLock)
			w.WriteF64(energyAddr, w.ReadF64(energyAddr)+ke)
			w.Unlock(waterEnergyLock)
			w.Barrier()

			// Phase 7: bookkeeping (scaling, output accumulation).
			w.Compute(sim.Duration(own) * 100 * sim.Nanosecond)
			w.Barrier()
		}
		if w.ThreadID() == 0 {
			timed = w.Now() - start
			check = w.ReadF64(energyAddr)
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Name: "WATER", Hosts: p.Hosts, Report: report, Timed: timed, Check: check, Checked: check != 0, Engine: EngineShape{Counters: cluster.EngineCounters()}}, nil
}

// pairForce is a soft inverse-square interaction — a real (if simplified)
// force field, so the dynamics are deterministic and coherence errors
// change the checksum.
func pairForce(xi, yi, zi, xj, yj, zj float64) (fx, fy, fz float64) {
	dx, dy, dz := xi-xj, yi-yj, zi-zj
	r2 := dx*dx + dy*dy + dz*dz + 0.5
	inv := 1.0 / (r2 * math.Sqrt(r2))
	return dx * inv, dy * inv, dz * inv
}

func readTriple(w *millipage.Worker, addr millipage.Addr) (a, b, c float64) {
	return w.ReadF64(addr), w.ReadF64(addr + 8), w.ReadF64(addr + 16)
}

func writeTriple(w *millipage.Worker, addr millipage.Addr, a, b, c float64) {
	w.WriteF64(addr, a)
	w.WriteF64(addr+8, b)
	w.WriteF64(addr+16, c)
}
