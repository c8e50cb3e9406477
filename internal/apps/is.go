package apps

import (
	"encoding/binary"

	millipage "millipage"
	"millipage/internal/sim"
)

// IS: the NAS Integer Sort kernel, 2^23 keys over 2^9 values. The shared
// state is the small rank/histogram array (2 KB at 8 hosts), which the
// paper's modification splits into per-host regions of 256 bytes so each
// region is its own minipage: "we modified the allocation routine to have
// these regions allocated separately" (Section 4.3).
//
// Each of the 10 ranking iterations histograms the host's local keys
// (pure computation), then accumulates into the shared regions with a
// skewed all-to-all schedule — in phase p, host h updates region
// (h+p) mod H, so every region has exactly one writer per phase and no
// locks are needed (Table 2 lists none). A final ranking phase reads the
// host's own region. With the paper's 8 hosts this is 9 barriers per
// iteration: 90 in all, matching Table 2.

const (
	isKeysFull = 1 << 23
	isValues   = 1 << 9
	isIters    = 10
)

// RunIS executes Integer Sort on p.Hosts hosts.
func RunIS(p Params) (Result, error) {
	p = p.withDefaults()
	totalKeys := scaled(isKeysFull, p.Scale, 1<<12)
	hosts := p.Hosts

	// Region geometry: one region per host covering an equal slice of the
	// value range, padded so regions are the allocation (= sharing) unit.
	perRegion := (isValues + hosts - 1) / hosts
	regionBytes := perRegion * 4

	// The shared state is per-host (one region + one check slot each) and
	// every allocation occupies at least one minipage (page/Views = 512
	// bytes at Views 8), so the arena must scale with the cluster in
	// minipage units; grow-only past the paper's 64 KB so host counts
	// <= 8 keep the exact arena the goldens pin.
	const mini = 4096 / 8
	alloc := (regionBytes+mini-1)/mini*mini + mini // region + check slot, rounded up
	shared := 64 << 10
	if need := hosts*alloc + (64 << 10); need > shared {
		shared = need
	}

	cluster, err := p.newCluster(shared, 8, 0) // 8 views: Table 2's value
	if err != nil {
		return Result{}, err
	}

	regionAddr := make([]millipage.Addr, hosts)
	checkAddr := make([]millipage.Addr, hosts)
	var timed sim.Duration
	var check float64

	report, err := cluster.Run(func(w *millipage.Worker) {
		h := w.Host()
		if w.ThreadID() == 0 {
			zero := make([]byte, regionBytes)
			for r := 0; r < hosts; r++ {
				regionAddr[r] = w.Malloc(regionBytes)
				w.Write(regionAddr[r], zero)
			}
			for r := 0; r < hosts; r++ {
				checkAddr[r] = w.Malloc(256)
			}
		}
		w.Barrier()
		w.ResetStats()
		start := w.Now()

		// Local keys: host h takes slice [h*total/hosts, (h+1)*total/hosts)
		// of a key sequence defined by global index, so the key multiset —
		// and hence the checksum — is identical for every host count.
		lo := h * totalKeys / hosts
		nKeys := (h+1)*totalKeys/hosts - lo
		keys := make([]uint16, nKeys)
		for i := range keys {
			keys[i] = uint16(isKeyAt(uint64(lo+i), uint64(p.Seed)))
		}
		local := make([]uint32, isValues)

		for it := 0; it < isIters; it++ {
			// Histogram the local keys (the dominant computation).
			for i := range local {
				local[i] = 0
			}
			for _, k := range keys {
				local[k]++
			}
			w.Compute(sim.Duration(nKeys) * isKey)

			// Skewed all-to-all accumulation: one writer per region per
			// phase, one barrier per phase.
			buf := make([]byte, regionBytes)
			for phase := 0; phase < hosts; phase++ {
				r := (h + phase) % hosts
				w.Read(regionAddr[r], buf)
				words := buf
				for _, n := range isRegionOf(local, r, perRegion) {
					e := (*[4]byte)(words)
					binary.LittleEndian.PutUint32(e[:], binary.LittleEndian.Uint32(e[:])+n)
					words = words[4:]
				}
				w.Write(regionAddr[r], buf)
				w.Compute(sim.Duration(perRegion) * isKey)
				w.Barrier()
			}

			// Ranking: each host reads its own region, computes prefix
			// sums and ranks its local keys, then resets the region for
			// the next iteration.
			w.Read(regionAddr[h], buf)
			var sum uint64
			words := buf
			for b := range isRegionOf(local, h, perRegion) {
				sum += uint64(binary.LittleEndian.Uint32((*[4]byte)(words)[:])) * uint64(h*perRegion+b)
				words = words[4:]
			}
			w.Compute(sim.Duration(nKeys) * isKey / 2)
			if it == isIters-1 {
				w.WriteU64(checkAddr[h], sum)
			} else {
				w.Write(regionAddr[h], make([]byte, regionBytes))
			}
			w.Barrier() // 9th barrier of the iteration (at 8 hosts)
		}
		if w.ThreadID() == 0 {
			timed = w.Now() - start
			for r := 0; r < hosts; r++ {
				check += float64(w.ReadU64(checkAddr[r]))
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	// The weighted bucket sum is a deterministic function of the keys, so
	// it validates coherence exactly (integer arithmetic: no FP ordering).
	return Result{Name: "IS", Hosts: hosts, Report: report, Timed: timed, Check: check, Checked: check != 0, Engine: EngineShape{Counters: cluster.EngineCounters()}}, nil
}

// isKeyAt is a splitmix64-style hash of the global key index: a
// deterministic uniform key stream independent of the host partitioning.
func isKeyAt(i, seed uint64) uint64 {
	z := i*0x9E3779B97F4A7C15 + seed*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z % isValues
}

// isRegionOf returns region r's part of the per-value array: perRegion
// values, fewer or none where the region reaches past the value range.
func isRegionOf(values []uint32, r, perRegion int) []uint32 {
	lo := min(r*perRegion, isValues)
	return values[lo:min(lo+perRegion, isValues)]
}
