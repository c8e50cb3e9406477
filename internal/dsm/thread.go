package dsm

import (
	"millipage/internal/cluster"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// Thread is one application thread's view of the DSM: the entire
// user-facing Millipage API (Section 3.4's library interface). The
// generic surface (memory access, Malloc, Barrier, Lock, Unlock, Compute,
// stats) is the embedded substrate thread; this type adds the Millipage
// performance hints, which only the SC class serves: under lrc-mw they
// are correct no-ops.
// All methods must be called from the thread's own body function.
type Thread struct {
	*cluster.Thread
	host *Host

	// req is the thread's record of its fault request in flight.
	req request
}

// sendPrefetch translates va and issues one prefetch request for the
// minipage backing it. The reliable transport carries it across a crash of
// either end, and the home serves it once, as it does every request.
// Its rendezvous, returned, outlives the call.
func (t *Thread) sendPrefetch(p *sim.Proc, va uint64) *cluster.Wait {
	h := t.host
	p.Sleep(h.Costs().MPTLookup)
	home, info := h.route(va)
	r := &request{h: h, fw: cluster.NewWait(h.sys.Eng)}
	h.sendNew(p, home, pmsg{Type: mReadReq, From: h.ID(), Addr: va, Info: info, Prefetch: true, Req: r, Epoch: h.epoch})
	t.Stats.Prefetches++
	return r.fw
}

// Prefetch asynchronously requests a read copy of the minipage(s) backing
// [va, va+size). If the region is already readable it is a no-op. The
// paper inserts two such calls in LU to hide its large minipage service
// delays (Section 4.3.1).
func (t *Thread) Prefetch(va uint64, size int) {
	if t.host.sys.mw {
		return
	}
	p := t.Proc()
	start := p.Now()
	if prot, err := t.host.AS.ProtOf(va); err == nil && prot >= vm.ReadOnly {
		return
	}
	if t.inPrefetchSpan(va) {
		return
	}
	t.host.prefetchSpans = append(t.host.prefetchSpans, span{base: va, size: size})
	t.sendPrefetch(p, va)
	t.Stats.PrefetchTime += p.Now().Sub(start)
}

// Push replicates the minipage containing va (which this thread's host
// must currently hold writable) to every host as a read copy — the
// paper's modification to TSP's minimal-tour bound: "it pushes readable
// copies of the new value to all hosts".
func (t *Thread) Push(va uint64) {
	if t.host.sys.mw {
		return
	}
	p := t.Proc()
	p.Sleep(t.host.Costs().MPTLookup)
	home, info := t.host.route(va)
	t.host.sendNew(p, home, pmsg{Type: mPushReq, From: t.host.ID(), Addr: va, Info: info, Epoch: t.host.epoch})
}

// Span names a shared region for group operations.
type Span struct {
	Addr uint64
	Size int
}

// GangFetch realizes the paper's composed-views proposal (Section 5):
// treat a group of minipages as one higher-level unit for fetching. All
// missing members are requested concurrently and the thread blocks once
// for the whole group, so the group's fetch latency is the slowest
// member rather than the sum — the "coarse grain operation mode" for
// read phases, without giving up fine-grain write sharing.
func (t *Thread) GangFetch(spans []Span) {
	if t.host.sys.mw {
		return
	}
	p := t.Proc()
	start := p.Now()
	h := t.host
	c := h.Costs()
	var evs []*sim.Event
	for _, sp := range spans {
		if prot, err := h.AS.ProtOf(sp.Addr); err != nil || prot >= vm.ReadOnly {
			continue
		}
		if t.inPrefetchSpan(sp.Addr) {
			continue
		}
		h.prefetchSpans = append(h.prefetchSpans, span{base: sp.Addr, size: sp.Size})
		evs = append(evs, t.sendPrefetch(p, sp.Addr).Ev)
	}
	if len(evs) > 0 {
		t.Block(cluster.Blocking{For: "prefetch group", Group: evs, Wake: c.ThreadWake})
	}
	t.Stats.PrefetchTime += p.Now().Sub(start)
}
