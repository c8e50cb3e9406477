// Package check exports the DESIGN.md §8 sharing invariants — the
// Single-Writer/Multiple-Readers page-table invariant, the sequential-
// consistency litmus oracles, and the DRF-agreement oracle — as plain
// functions and portable workload bodies. The conformance and chaos
// suites in internal/cluster assert them on the default schedule; the
// model checker in internal/mcheck asserts them after every explored
// schedule. Keeping the checkers here, outside any _test.go file, is
// what lets both call the same code.
package check

import (
	"fmt"

	"millipage/internal/sim"
	"millipage/internal/vm"
)

// AppThread is the application API the workload bodies run on under
// either consistency class; *dsm.Thread has it. The package stays free of
// the kernel, whose own tests run these bodies.
type AppThread interface {
	Host() int
	NumHosts() int
	NumThreads() int
	ThreadID() int
	Now() sim.Time
	Compute(d sim.Duration)
	ResetStats()

	Malloc(size int) uint64
	Read(va uint64, buf []byte)
	Write(va uint64, data []byte)
	ReadU32(va uint64) uint32
	WriteU32(va uint64, v uint32)
	ReadU64(va uint64) uint64
	WriteU64(va uint64, v uint64)
	ReadF64(va uint64) float64
	WriteF64(va uint64, v float64)

	Barrier()
	Lock(id int)
	Unlock(id int)
}

// Prots is the slice of cluster state the SW/MR checker reads: each
// host's page-table protection for an address. *dsm.System satisfies it;
// tests hand-build violating histories with any stub implementation.
type Prots interface {
	NumHosts() int
	// ProtOf reports host h's protection for va; err != nil means the
	// address is unmapped on that host.
	ProtOf(h int, va uint64) (vm.Prot, error)
}

// SWMR verifies the Single-Writer/Multiple-Readers invariant for the
// tracked addresses across every host's page table: at most one
// writable mapping, and a writable mapping excludes readable copies
// elsewhere. The simulation runs one process at a time, so sampling
// global VM state from inside a thread body observes a consistent
// instant of virtual time.
func SWMR(p Prots, vas []uint64) error {
	for _, va := range vas {
		writers, readers := 0, 0
		for i := 0; i < p.NumHosts(); i++ {
			prot, err := p.ProtOf(i, va)
			if err != nil {
				continue // unmapped on this host
			}
			switch prot {
			case vm.ReadWrite:
				writers++
			case vm.ReadOnly:
				readers++
			}
		}
		if writers > 1 {
			return fmt.Errorf("addr %#x: %d writable copies", va, writers)
		}
		if writers == 1 && readers > 0 {
			return fmt.Errorf("addr %#x: writable copy coexists with %d readers", va, readers)
		}
	}
	return nil
}

// MessagePassingOutcome judges one observation of the message-passing
// litmus: a reader that saw the flag raised must see the published
// data. seen is false if the reader never observed the flag (the
// litmus is then vacuous — not a violation).
func MessagePassingOutcome(seen bool, data uint32) error {
	if seen && data != 42 {
		return fmt.Errorf("message-passing litmus: observed flag but read data=%d, want 42", data)
	}
	return nil
}

// DekkerOutcome judges one observation of the store-buffering (Dekker)
// litmus: under sequential consistency at least one side must observe
// the other's write, so r0 = r1 = 0 is forbidden.
func DekkerOutcome(r0, r1 uint32) error {
	if r0 == 0 && r1 == 0 {
		return fmt.Errorf("dekker litmus: forbidden SC outcome r0=r1=0")
	}
	return nil
}

// DRFCellOutcome judges one cell read in the barrier hand-off phase of
// the DRF workload: in round r, cell c must hold the value written
// that round.
func DRFCellOutcome(round, host, cell int, got uint32) error {
	if want := uint32(100*round + cell); got != want {
		return fmt.Errorf("round %d host %d: cell %d = %d, want %d", round, host, cell, got, want)
	}
	return nil
}

// MergeWordOutcome judges one word read in the concurrent-merge
// workload's check phase: in round r, word w (owned by host w) must
// hold the value host w wrote that round. This is the LRC oracle in its
// sharpest form — the words share one minipage, so a multiple-writer
// protocol must merge every concurrent interval's diff without losing
// or smearing a neighbor's bytes.
func MergeWordOutcome(round, reader, word int, got uint32) error {
	if want := uint32(1000*round + 7*word + 13); got != want {
		return fmt.Errorf("round %d reader %d: word %d = %d, want %d", round, reader, word, got, want)
	}
	return nil
}

// DRFAccumulatorOutcome judges the lock-guarded accumulator at the end
// of the DRF workload: every host added its (host+1) contribution
// lockReps times, so anything but the closed-form sum is a lost or
// phantom update.
func DRFAccumulatorOutcome(hosts, lockReps, host int, got uint32) error {
	if want := uint32(lockReps * hosts * (hosts + 1) / 2); got != want {
		return fmt.Errorf("host %d: accumulator = %d, want %d", host, got, want)
	}
	return nil
}
