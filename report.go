package millipage

import (
	"fmt"
	"strings"

	"millipage/internal/stats"
)

// Report summarizes one application run: parallel execution time,
// per-thread time breakdowns (Figure 6 right), and protocol activity.
// The substrate metrics (threads, faults, messages, latencies) are
// protocol-independent; the directory and footprint counters below are
// filled per protocol and stay zero where a protocol has no equivalent.
type Report struct {
	Protocol string // the protocol that produced this run
	Hosts    int
	Elapsed  Duration // parallel execution time on the virtual clock

	Threads []ThreadReport

	// Protocol totals.
	ReadFaults        uint64
	WriteFaults       uint64
	Invalidations     uint64
	CompetingRequests uint64 // requests that found a transaction open: queued, or joined reads in flight
	Barriers          uint64
	LockAcquisitions  uint64
	MessagesSent      uint64
	BytesSent         uint64

	// Reliability-layer activity. All zero on the clean path (no fault
	// plan); under fault injection they quantify how hard the transport
	// worked to restore exactly-once FIFO delivery.
	Retransmits   uint64 // frames re-sent by retransmit timers
	DupsDropped   uint64 // duplicate frames discarded at receivers
	OutOfOrder    uint64 // frames buffered across a sequence gap
	FramesDropped uint64 // frames discarded by crashed hosts or sent into partitions

	// DSM footprint (Table 2 columns).
	Minipages  int
	ViewsUsed  int
	SharedUsed int // bytes of shared memory allocated

	// Latency decomposition (the paper's Section 4.3.1 discussion: an
	// average fault service of ~750us, most of it service-thread delay).
	AvgReadFaultTime  Duration // mean time a thread spends in one read fault
	AvgWriteFaultTime Duration
	AvgServiceDelay   Duration // mean message wait for a service thread (polling/timers)

	// Full latency distributions, merged across threads. The NT timer
	// model makes fault times bimodal; the histograms expose the tails
	// that the means above flatten.
	ReadFaultLatency  stats.Histogram
	WriteFaultLatency stats.Histogram
}

// ThreadReport is one thread's execution-time breakdown.
type ThreadReport struct {
	Host int

	Total     Duration
	Compute   Duration
	Prefetch  Duration
	ReadFault Duration
	WriteFlt  Duration
	Synch     Duration
	Malloc    Duration
	Idle      Duration // waits in Worker.Idle, outside the breakdown
	Other     Duration
}

// Breakdown returns the Figure 6 (right) fractions: computation (with
// allocation and residual protocol time folded in, as the paper does),
// prefetch, read fault, write fault and synchronization — summing to 1,
// over the thread's time less its idle time.
func (tr ThreadReport) Breakdown() (comp, prefetch, readF, writeF, synch float64) {
	tot := float64(tr.Total - tr.Idle)
	if tot == 0 {
		return 1, 0, 0, 0, 0
	}
	prefetch = float64(tr.Prefetch) / tot
	readF = float64(tr.ReadFault) / tot
	writeF = float64(tr.WriteFlt) / tot
	synch = float64(tr.Synch) / tot
	comp = 1 - prefetch - readF - writeF - synch
	return
}

func (c *Cluster) report() *Report {
	sys := c.sys
	r := &Report{
		Protocol: c.protocol,
		Hosts:    sys.NumHosts(),
		Elapsed:  sys.Elapsed(),
	}
	// The generic half: every protocol runs on one dsm.System, so threads,
	// faults, messages and latencies come from it regardless of protocol.
	for _, t := range sys.Threads() {
		st := t.Stats
		r.Threads = append(r.Threads, ThreadReport{
			Host:      t.Host(),
			Total:     st.Total(),
			Compute:   st.ComputeTime,
			Prefetch:  st.PrefetchTime,
			ReadFault: st.ReadFaultTime,
			WriteFlt:  st.WriteFaultTime,
			Synch:     st.SynchTime,
			Malloc:    st.MallocTime,
			Idle:      st.IdleTime,
			Other:     st.Other(),
		})
	}
	for i := 0; i < sys.NumHosts(); i++ {
		r.ReadFaults += sys.Host(i).AS.ReadFaults
		r.WriteFaults += sys.Host(i).AS.WriteFaults
		es := sys.Net.Endpoint(i).Stats()
		r.MessagesSent += es.Sent
		r.BytesSent += es.BytesSent
		r.Retransmits += es.Retransmits
		r.DupsDropped += es.DupsDropped
		r.OutOfOrder += es.OutOfOrder
		r.FramesDropped += es.DroppedDown + es.Partitioned
	}
	// Latency decomposition.
	var rfTime, wfTime Duration
	var rfN, wfN uint64
	for _, t := range sys.Threads() {
		rfTime += t.Stats.ReadFaultTime + t.Stats.PrefetchTime
		wfTime += t.Stats.WriteFaultTime
		rfN += t.Stats.ReadFaults
		wfN += t.Stats.WriteFaults
		r.ReadFaultLatency.Merge(&t.Stats.ReadFaultHist)
		r.WriteFaultLatency.Merge(&t.Stats.WriteFaultHist)
	}
	if rfN > 0 {
		r.AvgReadFaultTime = rfTime / Duration(rfN)
	}
	if wfN > 0 {
		r.AvgWriteFaultTime = wfTime / Duration(wfN)
	}
	var svc Duration
	var recv uint64
	for i := 0; i < sys.NumHosts(); i++ {
		es := sys.Net.Endpoint(i).Stats()
		svc += es.ServiceDelay
		recv += es.Received
	}
	if recv > 0 {
		r.AvgServiceDelay = svc / Duration(recv)
	}

	// The protocol half: directory activity and memory footprint.
	tot := c.sys.Totals()
	r.Invalidations = tot.Invalidations
	r.CompetingRequests = tot.CompetingRequests
	r.Barriers = tot.BarrierEpisodes
	r.LockAcquisitions = tot.LockAcquisitions
	r.Minipages = tot.Minipages
	r.ViewsUsed = tot.ViewsUsed
	r.SharedUsed = tot.BytesAllocated
	return r
}

// AvgBreakdown averages the per-thread breakdowns — the bar the paper
// plots per application at eight hosts.
func (r *Report) AvgBreakdown() (comp, prefetch, readF, writeF, synch float64) {
	if len(r.Threads) == 0 {
		return 1, 0, 0, 0, 0
	}
	for _, tr := range r.Threads {
		c, p, rf, wf, s := tr.Breakdown()
		comp += c
		prefetch += p
		readF += rf
		writeF += wf
		synch += s
	}
	n := float64(len(r.Threads))
	return comp / n, prefetch / n, readF / n, writeF / n, synch / n
}

// String renders a human-readable run summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol=%s hosts=%d elapsed=%v\n", r.Protocol, r.Hosts, r.Elapsed)
	fmt.Fprintf(&b, "faults: read=%d write=%d invalidations=%d competing=%d\n",
		r.ReadFaults, r.WriteFaults, r.Invalidations, r.CompetingRequests)
	fmt.Fprintf(&b, "synch: barriers=%d locks=%d\n", r.Barriers, r.LockAcquisitions)
	fmt.Fprintf(&b, "net: msgs=%d bytes=%d\n", r.MessagesSent, r.BytesSent)
	if r.Retransmits+r.DupsDropped+r.OutOfOrder+r.FramesDropped > 0 {
		fmt.Fprintf(&b, "reliability: retransmits=%d dups=%d ooo=%d dropped=%d\n",
			r.Retransmits, r.DupsDropped, r.OutOfOrder, r.FramesDropped)
	}
	fmt.Fprintf(&b, "dsm: minipages=%d views=%d shared=%dB\n", r.Minipages, r.ViewsUsed, r.SharedUsed)
	if r.ReadFaultLatency.Count() > 0 {
		fmt.Fprintf(&b, "read-fault latency: %s\n", r.ReadFaultLatency.Summary())
	}
	if r.WriteFaultLatency.Count() > 0 {
		fmt.Fprintf(&b, "write-fault latency: %s\n", r.WriteFaultLatency.Summary())
	}
	comp, pf, rf, wf, sy := r.AvgBreakdown()
	fmt.Fprintf(&b, "breakdown: comp=%.1f%% prefetch=%.1f%% read=%.1f%% write=%.1f%% synch=%.1f%%",
		comp*100, pf*100, rf*100, wf*100, sy*100)
	return b.String()
}
