package dsm

import "millipage/internal/sim"

// Costs is the table of local operation costs, calibrated to Table 1 of
// the paper (all on the 300 MHz Pentium II / NT 4.0 testbed). Message
// send/receive costs live in fastmsg.Params; these are the host-local
// costs charged on top. Every protocol shares the table: the point of
// the cross-protocol benchmarks is that the substrate costs are held
// equal while the coherence policy varies.
type Costs struct {
	AccessFault sim.Duration // taking the access violation and dispatching the handler
	GetProt     sim.Duration // querying a vpage protection
	SetProt     sim.Duration // VirtualProtect on a vpage run
	MPTLookup   sim.Duration // manager's minipage-table lookup (Translate)
	ThreadWake  sim.Duration // SetEvent + scheduler latency to resume the faulting thread
	BlockThread sim.Duration // suspending the faulting thread on its event
	FaultResume sim.Duration // SEH unwind and instruction retry after a serviced fault
	BarrierBase sim.Duration // local bookkeeping of one barrier episode
	MallocBase  sim.Duration // allocator bookkeeping at the manager

	// InstallPerByte is the per-byte cost of landing received minipage
	// contents (DMA completion handling, dirty-page bookkeeping).
	InstallPerByte sim.Duration

	HeaderSize int // bytes in a protocol header message
}

// DefaultCosts returns the Table-1 calibration.
func DefaultCosts() Costs {
	return Costs{
		AccessFault:    26 * sim.Microsecond,
		GetProt:        7 * sim.Microsecond,
		SetProt:        12 * sim.Microsecond,
		MPTLookup:      7 * sim.Microsecond,
		ThreadWake:     30 * sim.Microsecond,
		BlockThread:    10 * sim.Microsecond,
		FaultResume:    35 * sim.Microsecond,
		BarrierBase:    8 * sim.Microsecond,
		MallocBase:     5 * sim.Microsecond,
		InstallPerByte: 4 * sim.Nanosecond,
		HeaderSize:     32,
	}
}
