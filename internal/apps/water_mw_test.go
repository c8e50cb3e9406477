package apps

import (
	"fmt"
	"math"
	"testing"
)

// checkWATERMW runs WATER under lrc-mw at the given chunk level, host
// count and molecule count on seeds 1..seeds, and fails on every seed
// whose checksum is off the 1-host run's by more than the suite's 1e-6
// relative tolerance. Chunked minipages put several molecules, and so
// several concurrent lock-protected writers, into one minipage: the
// multi-writer protocol's hard case.
func checkWATERMW(t *testing.T, chunk, hosts, mols, seeds int) {
	t.Helper()
	var wrong []int
	for seed := 1; seed <= seeds; seed++ {
		p := Params{Protocol: "lrc-mw", Hosts: 1, ChunkLevel: chunk, Scale: float64(mols) / waterMolsFull, Seed: int64(seed)}
		r1, err := RunWATER(p)
		if err != nil {
			t.Fatalf("seed %d, 1 host: %v", seed, err)
		}
		p.Hosts = hosts
		rn, err := RunWATER(p)
		if err != nil {
			t.Fatalf("seed %d, %d hosts: %v", seed, hosts, err)
		}
		if math.Abs(r1.Check-rn.Check)/math.Max(math.Abs(r1.Check), 1) > 1e-6 {
			wrong = append(wrong, seed)
		}
	}
	if len(wrong) > 0 {
		t.Fatalf("lrc-mw WATER, chunk %d, %d hosts, %d molecules: checksum off the 1-host run on seeds %v of 1-%d",
			chunk, hosts, mols, wrong, seeds)
	}
}

// TestWATERLRCMWChunk8 and TestWATERLRCMWChunk3Hosts16 are the cells
// where lazy per-writer diff fetching got WATER wrong most often (every
// one of the ten seeds at chunk 8, four of them at chunk 3 on 16 hosts);
// a fault now always fetches from the home.
func TestWATERLRCMWChunk8(t *testing.T) { checkWATERMW(t, 8, 8, 32, 10) }

func TestWATERLRCMWChunk3Hosts16(t *testing.T) { checkWATERMW(t, 3, 16, 32, 10) }

// TestWATERLRCMWSweep is the bounded sweep: lrc-mw at chunk 2, 4 and 8
// on 8 hosts, 32 and 64 molecules, 20 seeds each, against 1 host.
func TestWATERLRCMWSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep: 240 WATER runs")
	}
	for _, chunk := range []int{2, 4, 8} {
		for _, mols := range []int{32, 64} {
			t.Run(fmt.Sprintf("chunk%d/mols%d", chunk, mols), func(t *testing.T) {
				checkWATERMW(t, chunk, 8, mols, 20)
			})
		}
	}
}
