// Package dsm implements the paper's minipage DSM, built on the MultiView
// technique (internal/core), a simulated VM subsystem (internal/vm) and a
// simulated FastMessages layer (internal/fastmsg), under two consistency
// classes of one System, Host and Thread.
//
// New builds Millipage: fine-granularity, sequentially consistent, and
// the paper's Figure 3, verbatim in structure:
//
//   - Sequential Consistency via Single-Writer/Multiple-Readers.
//   - One process per host; one of them (host 0) is the manager and owns
//     the minipage table (MPT) and the directory.
//   - A fault looks its address up in the host's MPT replica, writes the
//     translation info (minipage base, size, privileged-view address) into
//     reserved header space and sends the request to the manager, which
//     forwards it; data then travels directly owner → requester. (In the
//     paper the manager does the lookup; here Translate runs at the
//     requester, so the one serial point never pays it.)
//   - The woken faulter sends an ack to the manager, which closes the
//     transaction. Requests arriving for a minipage with an open
//     transaction are queued at the manager (and counted: these are the
//     paper's "competing requests"). Consequently a non-manager host can
//     always service a request immediately — it is never mid-acquisition
//     of the same minipage — so non-manager hosts need no queues at all.
//   - DSM server threads access memory through the privileged view:
//     updates are atomic with respect to the application views, and
//     send/receive is zero-copy.
//
// NewMW builds lrc-mw, the paper's first future-work direction (Section
// 5, "Reduced-Consistency Protocols"): multi-writer lazy release
// consistency over the same minipages (mw.go). Once chunking makes
// minipages larger than the sharing unit, false sharing reappears within
// a minipage, and a reduced-consistency protocol can absorb it. Per-host
// vector timestamps partition each host's execution into intervals; a
// write fault twins the minipage and proceeds locally; a release closes
// the interval by diffing the dirty minipages against their twins; and a
// write notice (creator, interval, minipage ids) is what propagates at
// synchronization, not the data. An acquire invalidates only the
// minipages a causally newer notice names, so two hosts writing disjoint
// bytes of one minipage never ping-pong. Data-race-free programs observe
// the same results as under sequential consistency. The 250 us per 4 KB
// diff that Millipage's thin layer avoids is charged here.
//
//   - Home-based (HLRC: Zhou, Iftode & Li, OSDI '96), minipage id homed
//     at Options.HomeOf(id) as under SC: every interval's diffs are
//     flushed to each minipage's home and acked before the releaser's
//     notice can circulate, so the home is current for every notice any
//     host can have seen. A fault on a missing or invalidated copy is one
//     fetch of the whole minipage from its home; a dirty copy lays its
//     own writes back over the home's bytes and re-twins from them.
//   - Notices flow through the host-0 coordinator, piggybacked on lock
//     grants and barrier releases. The log order is a linear extension of
//     happens-before; an acquirer gets every logged notice newer than its
//     vector clock, a conservative superset that is sound for
//     data-race-free programs.
//   - The coordinator clears its log at every barrier, and each host keeps
//     its notices' minipage lists in two arenas — this barrier epoch's and
//     the last one's — and resets the older at every barrier.
package dsm

import "millipage/internal/cluster"

// Costs is the shared table of host-local operation costs, calibrated to
// Table 1 of the paper; it lives in internal/cluster so every protocol
// charges the same substrate costs.
type Costs = cluster.Costs

// DefaultCosts returns the Table-1 calibration.
func DefaultCosts() Costs { return cluster.DefaultCosts() }
