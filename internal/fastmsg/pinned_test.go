package fastmsg

import (
	"fmt"
	"hash/fnv"
	"testing"

	"millipage/internal/faultnet"
	"millipage/internal/pins"
	"millipage/internal/sim"
)

// TestReliabilityPinned pins what the reliability layer does, not only
// that it delivers: over drops and duplicates, reordering, a partition
// that heals, a host crashed at several points of its traffic (idle, and
// busy so that its arrivals wait for the sweeper), a crash inside a
// crash, and all of them at once, every run's end time, engine event
// count and every
// endpoint's counters go into one digest. A retransmission timer that
// fires when superseded, an ack or a duplicate handled one step
// differently, or a frame counted twice moves it, where the delivery
// checks of relHarness still pass.
func TestReliabilityPinned(t *testing.T) {
	ms := func(n float64) sim.Time { return sim.Time(n * float64(sim.Millisecond)) }
	plans := []faultnet.Plan{
		{Drop: 0.3, Dup: 0.15},
		{Reorder: 0.6, Jitter: 2 * sim.Millisecond},
		{Drop: 0.05, Partitions: []faultnet.Partition{{A: 0b001, B: 0b110, From: ms(1), Until: ms(20)}}},
		{Drop: 0.2, Dup: 0.1, Reorder: 0.3, Jitter: 3 * sim.Millisecond,
			Partitions: []faultnet.Partition{{A: 0b001, B: 0b110, From: ms(5), Until: ms(60)}},
			Crashes:    []faultnet.Crash{{Host: 1, At: ms(20), RestartAt: ms(80)}}},
	}
	for _, at := range []float64{0.3, 0.7, 1, 2, 5} {
		plans = append(plans, faultnet.Plan{Drop: 0.1, Dup: 0.05, Crashes: []faultnet.Crash{{Host: 1, At: ms(at), RestartAt: ms(at + 4)}}})
	}
	plans = append(plans, faultnet.Plan{Drop: 0.1, Crashes: []faultnet.Crash{{Host: 1, At: ms(1), RestartAt: ms(6)}, {Host: 1, At: ms(3), RestartAt: ms(8)}}})
	busy := func(nw *Network) { // host 1 runs a thread until 10 ms
		nw.Endpoint(1).SetBusy(1)
		nw.eng.At(ms(10), func() { nw.Endpoint(1).SetBusy(-1) })
	}
	h := fnv.New64a()
	for i, plan := range plans {
		for seed := int64(1); seed <= 3; seed++ {
			runs := []*Network{relHarness(t, 3, 30, plan, seed)}
			if plan.Crashes != nil {
				runs = append(runs, relHarness(t, 3, 30, plan, seed, busy))
			}
			for _, nw := range runs {
				fmt.Fprintf(h, "%d/%d %d %d", i, seed, nw.eng.Now(), nw.eng.Counters().Events)
				for _, ep := range nw.eps {
					fmt.Fprintf(h, " %+v", ep.Stats())
				}
			}
		}
	}
	pins.Check(t, "ReliabilityPinned", fmt.Sprintf("%016x", h.Sum64()))
}
