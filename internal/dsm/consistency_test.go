package dsm

import (
	"fmt"
	"testing"

	"millipage/internal/sim"
)

// Sequential-consistency litmus tests, run across many seeds so the
// random service-thread timing explores different interleavings.

// Message passing: host 0 writes data then raises a flag (different
// minipages); host 1 spins on the flag and must then observe the data.
// Under SC the data write is ordered before the flag write for every
// observer — no fences or release operations exist in the API at all.
func TestLitmusMessagePassing(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16, Views: 4, Seed: seed})
			var data, flag uint64
			var observed uint32
			run(t, s, func(th *Thread) {
				if th.Host() == 0 {
					data = th.Malloc(64)
					flag = th.Malloc(64)
					th.WriteU32(data, 0)
					th.WriteU32(flag, 0)
				}
				th.Barrier()
				if th.Host() == 0 {
					th.Compute(sim.Duration(seed) * 37 * sim.Microsecond)
					th.WriteU32(data, 42)
					th.WriteU32(flag, 1)
				} else {
					for th.ReadU32(flag) == 0 {
						th.Compute(20 * sim.Microsecond)
					}
					observed = th.ReadU32(data)
				}
			})
			if observed != 42 {
				t.Fatalf("flag observed but data = %d (SC violation)", observed)
			}
		})
	}
}

// Dekker: both hosts raise their flag, then read the other's. Under SC
// at least one host must observe the other's flag raised.
func TestLitmusDekker(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16, Views: 4, Seed: seed})
			var flags [2]uint64
			var saw [2]uint32
			run(t, s, func(th *Thread) {
				if th.Host() == 0 {
					flags[0] = th.Malloc(64)
					flags[1] = th.Malloc(64)
					th.WriteU32(flags[0], 0)
					th.WriteU32(flags[1], 0)
				}
				th.Barrier()
				me := th.Host()
				th.Compute(sim.Duration((seed*int64(me+1))%7) * 13 * sim.Microsecond)
				th.WriteU32(flags[me], 1)
				saw[me] = th.ReadU32(flags[1-me])
			})
			if saw[0] == 0 && saw[1] == 0 {
				t.Fatal("both hosts read 0 (forbidden under SC)")
			}
		})
	}
}

// Coherence (single location): writes to one minipage are seen in a
// single total order by all hosts — reads never go backwards.
func TestLitmusCoherence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := newSys(t, New, Options{Hosts: 4, SharedSize: 1 << 16, Views: 4, Seed: seed})
			var cell uint64
			violated := false
			run(t, s, func(th *Thread) {
				if th.Host() == 0 {
					cell = th.Malloc(64)
					th.WriteU32(cell, 0)
				}
				th.Barrier()
				if th.Host() == 0 {
					for i := uint32(1); i <= 20; i++ {
						th.WriteU32(cell, i)
						th.Compute(150 * sim.Microsecond)
					}
				} else {
					last := uint32(0)
					for last < 20 {
						v := th.ReadU32(cell)
						if v < last {
							violated = true
							return
						}
						last = v
						th.Compute(90 * sim.Microsecond)
					}
				}
			})
			if violated {
				t.Fatal("monotonic writer observed out of order")
			}
		})
	}
}

// Atomic visibility of multi-word minipage updates: the server installs
// minipage contents through the privileged view while application views
// are protected, so a reader never observes a torn 16-byte record.
func TestLitmusNoTornRecords(t *testing.T) {
	s := newSys(t, New, Options{Hosts: 2, SharedSize: 1 << 16, Views: 4, Seed: 9})
	var rec uint64
	torn := false
	run(t, s, func(th *Thread) {
		if th.Host() == 0 {
			rec = th.Malloc(64)
			th.WriteU64(rec, 0)
			th.WriteU64(rec+8, 0)
		}
		th.Barrier()
		if th.Host() == 0 {
			for i := uint64(1); i <= 30; i++ {
				// The two words are always written to be equal, within
				// one minipage write transaction.
				var buf [16]byte
				for b := 0; b < 8; b++ {
					buf[b] = byte(i >> (8 * b))
					buf[8+b] = byte(i >> (8 * b))
				}
				th.Write(rec, buf[:])
				th.Compute(120 * sim.Microsecond)
			}
		} else {
			for i := 0; i < 40; i++ {
				var buf [16]byte
				th.Read(rec, buf[:])
				var a, b uint64
				for k := 0; k < 8; k++ {
					a |= uint64(buf[k]) << (8 * k)
					b |= uint64(buf[8+k]) << (8 * k)
				}
				if a != b {
					torn = true
					return
				}
				th.Compute(80 * sim.Microsecond)
			}
		}
	})
	if torn {
		t.Fatal("reader observed a torn record")
	}
}
