// Package dsm implements Millipage: a fine-granularity, sequentially
// consistent, page-based software DSM built on the MultiView technique
// (internal/core), a simulated VM subsystem (internal/vm) and a simulated
// FastMessages layer (internal/fastmsg).
//
// The protocol is the paper's Figure 3, verbatim in structure:
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
package dsm

import "millipage/internal/cluster"

// Costs is the shared table of host-local operation costs, calibrated to
// Table 1 of the paper; it lives in internal/cluster so every protocol
// charges the same substrate costs.
type Costs = cluster.Costs

// DefaultCosts returns the Table-1 calibration.
func DefaultCosts() Costs { return cluster.DefaultCosts() }
