// Package dsm implements the paper's minipage DSM, built on the MultiView
// technique (internal/core), a simulated VM subsystem (internal/vm) and a
// simulated FastMessages layer (internal/fastmsg), under two consistency
// classes of one System, Host and Thread.
//
// The package is also the runtime both classes run on: the one Options
// struct, defaulted and validated in New; host and application-thread
// lifecycle; the fault frame (Host.onFault) and the one blocking point
// (Thread.Block); the message table a host dispatches, with its send and
// receive paths (table.go); per-thread time accounting; and the
// coordinator — the allocation, barrier and lock services of the paper's
// manager, barriers combining up a tree rooted there (service.go).
//
// New builds Millipage: fine-granularity, sequentially consistent, and
// the paper's Figure 3, verbatim in structure:
//
//   - Sequential Consistency via Single-Writer/Multiple-Readers.
//   - One process per host. Host 0 owns the minipage table (MPT); each
//     minipage's directory entry lives at its home: Options.HomeOf(id) at
//     first (host 0 under HomeCentral), then a stable sole writer (home.go).
//   - A fault translates its address in the host's MPT replica, writes
//     the translation into reserved header space and sends the request to
//     the home, which forwards it to a replica — itself first, so a home
//     holding a copy sources the bytes without a hop; data then travels
//     directly replica → requester.
//   - A read under a lock, of a minipage this host wrote to its home
//     under one, goes out exclusive: unless it queued, the home runs it as
//     a write miss and the copy lands ReadOnly, marked the only one, so
//     the critical section's write raises it locally with no message.
//   - The woken faulter acks the home, which closes the transaction.
//     Requests for a minipage with an open transaction queue at its home
//     (the paper's "competing requests"), so a replica can always serve a
//     forward at once and needs no queue.
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
//   - Home-based (HLRC: Zhou, Iftode & Li, OSDI '96), homed at HomeOf(id)
//     until a barrier moves the home to a sole writer of two epochs: a
//     release sends each diff to the home and goes on; a home's writes
//     take no twin or diff. A fault on a missing or invalidated copy is one
//     read the home serves on SC's rows, no ack, once it has applied every
//     diff its host holds a notice for, as a home's acquire waits for them.
//     A dirty copy lays its writes back over the home's bytes and re-twins.
//   - Notices flow through the host-0 coordinator, piggybacked on lock
//     grants and barrier releases. The log order is a linear extension of
//     happens-before; an acquirer gets every logged notice newer than its
//     vector clock, a conservative superset that is sound for
//     data-race-free programs.
//   - The coordinator clears its log at every barrier, and each host keeps
//     its notices' minipage lists in two arenas — this barrier epoch's and
//     the last one's — and resets the older at every barrier.
package dsm
