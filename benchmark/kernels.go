package main

import (
	"fmt"
	"runtime"
	"time"

	millipage "millipage"
	"millipage/internal/apps"
	"millipage/internal/core"
	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/mmu"
	"millipage/internal/sim"
	"millipage/internal/stats"
	"millipage/internal/twindiff"
	"millipage/internal/vm"
)

// Kernels are the workload-independent per-layer metrics: each a span
// around a loop of one layer's public calls. Host-clock kernels report
// ns per operation (the median of three loops of a fixed length).
// Virtual-clock kernels report the simulated microseconds of a basic
// protocol operation next to the value the paper measured for it — the
// model's only numeric reference; application speedups have none and are
// unvalidated.

type kernelDef struct {
	Name    string
	Unit    string
	Clock   string
	Paper   float64 // the paper's value, 0 when it gives none
	PaperHi float64 // upper end when the paper gives a range
}

// kernelGroup is one span: a measurement that yields one value per def.
type kernelGroup struct {
	Span string
	Defs []kernelDef
	Run  func(quick bool) ([]float64, error)
}

func hostNs(name string) kernelDef { return kernelDef{Name: name, Unit: "ns", Clock: hostClock} }
func simUs(name string, paper, hi float64) kernelDef {
	return kernelDef{Name: name, Unit: "us", Clock: virtualClock, Paper: paper, PaperHi: hi}
}

var kernelGroups = []kernelGroup{
	{"kernel/host.int", []kernelDef{hostNs("host.int_ns")}, one(intLoop)},
	{"kernel/sim.event", []kernelDef{hostNs("sim.event_ns")}, one(perOp(500_000, simEvent))},
	{"kernel/sim.switch", []kernelDef{hostNs("sim.switch_ns")}, one(perOp(5_000_000, simSwitch))},
	{"kernel/sim.queue_handoff", []kernelDef{hostNs("sim.queue_handoff_ns")}, one(perOp(100_000, simQueueHandoff))},
	{"kernel/sim.par", []kernelDef{
		{Name: "sim.par_wall_ratio", Unit: "ratio", Clock: hostClock},
		{Name: "sim.par_windows", Unit: "count", Clock: virtualClock},
	}, parEngine},
	{"kernel/vm.access", []kernelDef{hostNs("vm.access_ns")}, one(perOp(1_000_000, vmAccess))},
	{"kernel/vm.fault_upcall", []kernelDef{hostNs("vm.fault_upcall_ns")}, one(perOp(500_000, vmFaultUpcall))},
	{"kernel/vm.protect", []kernelDef{hostNs("vm.protect_ns")}, one(perOp(1_000_000, vmProtect))},
	{"kernel/mmu.access", []kernelDef{hostNs("mmu.access_ns")}, one(perOp(2_000_000, mmuAccess))},
	{"kernel/mmu.slowdown", []kernelDef{
		{Name: "mmu.slowdown_1mb_32v", Unit: "ratio", Clock: virtualClock},
		{Name: "mmu.slowdown_16mb_32v", Unit: "ratio", Clock: virtualClock},
	}, mmuSlowdown},
	{"kernel/core.mpt", []kernelDef{hostNs("core.mpt_alloc_ns"), hostNs("core.mpt_lookup_ns")}, coreMPT},
	{"kernel/fastmsg.hop", []kernelDef{
		hostNs("fastmsg.hop_ns"), {Name: "fastmsg.hop_allocs", Unit: "count", Clock: hostClock},
	}, func(quick bool) ([]float64, error) { return msgHop(false, quick) }},
	{"kernel/fastmsg.hop_armed", []kernelDef{
		hostNs("fastmsg.hop_armed_ns"), {Name: "fastmsg.hop_armed_allocs", Unit: "count", Clock: hostClock},
	}, func(quick bool) ([]float64, error) { return msgHop(true, quick) }},
	{"kernel/twindiff.4k", []kernelDef{hostNs("twindiff.diff_4k_ns"), hostNs("twindiff.apply_4k_ns")}, twinDiff4K},
	{"kernel/stats.hist_add", []kernelDef{hostNs("stats.hist_add_ns")}, one(perOp(2_000_000, histAdd))},
	{"kernel/dsm.fetch", []kernelDef{
		simUs("dsm.read_fetch_128_us", 204, 0),
		simUs("dsm.read_fetch_4k_us", 314, 0),
		simUs("dsm.write_fetch_128_7rc_us", 366, 0),
	}, fetchCosts},
	{"kernel/cluster.synch", []kernelDef{
		simUs("cluster.barrier8_us", 153, 0),
		simUs("cluster.lock_unlock_us", 67, 80),
	}, synchCosts},
	pingpongGroup("dsm", "millipage"),
	pingpongGroup("ivy", "ivy"),
	pingpongGroup("lrc", "lrc"),
	pingpongGroup("lrcmw", "lrc-mw"),
}

// kernels flattens the groups' defs, in order.
var kernels = func() []kernelDef {
	var out []kernelDef
	for _, g := range kernelGroups {
		out = append(out, g.Defs...)
	}
	return out
}()

// runKernels runs every kernel group under its span and returns the
// values by metric name.
func runKernels(rec *recorder, quick bool) (map[string]float64, error) {
	out := map[string]float64{}
	for _, g := range kernelGroups {
		s := rec.begin(g.Span)
		vals, err := g.Run(quick)
		s.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.Span, err)
		}
		for i, d := range g.Defs {
			out[d.Name] = vals[i]
		}
	}
	return out, nil
}

func one(f func(quick bool) (float64, error)) func(bool) ([]float64, error) {
	return func(quick bool) ([]float64, error) {
		v, err := f(quick)
		return []float64{v}, err
	}
}

// quickDiv shortens the kernels' loops for the -quick test sizes.
const quickDiv = 50

// perOp turns a loop of n operations into a kernel: the median host
// nanoseconds per operation of three loops.
func perOp(n int, loop func(n int) error) func(quick bool) (float64, error) {
	return func(quick bool) (float64, error) {
		n := n
		if quick {
			n /= quickDiv
		}
		var ns [3]float64
		for i := range ns {
			t0 := time.Now()
			if err := loop(n); err != nil {
				return 0, err
			}
			ns[i] = float64(time.Since(t0)) / float64(n)
		}
		return median(ns[:]), nil
	}
}

// sink keeps results the compiler could otherwise prove unused.
var sink uint64

// intLoop is a fixed integer loop. Beside host.calib_ns (the goroutine
// round trip host times are normalised with, measure.go) it tells which
// way a slow box is slow: at computing or at switching.
func intLoop(quick bool) (float64, error) {
	return perOp(20_000_000, func(n int) error {
		x := uint64(88172645463325252)
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
		return nil
	})(quick)
}

// simEvent: schedule-and-fire throughput of the engine calendar.
func simEvent(n int) error {
	e := sim.NewEngine(1)
	fired := 0
	var tick func()
	tick = func() {
		if fired++; fired < n {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	e.Spawn("driver", func(p *sim.Proc) {
		for fired < n {
			p.Sleep(1000)
		}
	})
	return e.Run()
}

// simSwitch: one Sleep per operation (park/resume of a process).
func simSwitch(n int) error {
	e := sim.NewEngine(1)
	e.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	return e.Run()
}

// simQueueHandoff: producer -> consumer rendezvous through a sim.Queue.
func simQueueHandoff(n int) error {
	e := sim.NewEngine(1)
	q := sim.NewQueue[int](e)
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Put(i)
			p.Sleep(1)
		}
	})
	e.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Get(p)
		}
	})
	return e.Run()
}

// parEngine is ROADMAP's pay-or-go evidence: the sor64 input on the
// sharded engine over the sequential one, same process, same box. Both
// values read 0 when the configuration is rejected.
func parEngine(quick bool) ([]float64, error) {
	p := apps.Params{Hosts: 64, Scale: 0.25, Seed: 1}
	if quick {
		p.Scale = 0.01
	}
	t0 := time.Now()
	if _, err := apps.RunSOR(p); err != nil {
		return nil, err
	}
	seq := time.Since(t0)
	p.Engine, p.ParWorkers = "par", min(runtime.NumCPU(), 4)
	t0 = time.Now()
	r, err := apps.RunSOR(p)
	if err != nil {
		return []float64{0, 0}, nil
	}
	return []float64{float64(time.Since(t0)) / float64(seq), float64(r.Engine.Windows)}, nil
}

const vmPages = 64

func vmSpace(prot vm.Prot) (*vm.AddressSpace, uint64, error) {
	const base = 0x2000_0000
	as := vm.NewAddressSpace()
	err := as.MapView(base, vm.NewMemObject(vmPages*vm.PageSize), 0, vmPages, prot)
	return as, base, err
}

// vmAccess: the protection-checked access fast path, no fault.
func vmAccess(n int) error {
	as, base, err := vmSpace(vm.ReadWrite)
	if err != nil {
		return err
	}
	var buf [8]byte
	for i := 0; i < n; i++ {
		va := base + uint64(i*64)%(vmPages*vm.PageSize)
		if err := as.Access(nil, va, buf[:], vm.Read); err != nil {
			return err
		}
	}
	return nil
}

// vmFaultUpcall: one write that faults into a handler which grants
// access, plus the Protect that revokes it again for the next round.
func vmFaultUpcall(n int) error {
	as, base, err := vmSpace(vm.NoAccess)
	if err != nil {
		return err
	}
	as.SetFaultHandler(func(_ any, f vm.Fault) error { return as.Protect(f.Addr, 1, vm.ReadWrite) })
	var buf [8]byte
	for i := 0; i < n; i++ {
		if err := as.Access(nil, base, buf[:], vm.Write); err != nil {
			return err
		}
		if err := as.Protect(base, 1, vm.NoAccess); err != nil {
			return err
		}
	}
	return nil
}

func vmProtect(n int) error {
	as, base, err := vmSpace(vm.ReadWrite)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := as.Protect(base+uint64(i%vmPages)*vm.PageSize, 1, vm.Prot(i%3)); err != nil {
			return err
		}
	}
	return nil
}

// mmuAccess: one modelled data reference (TLB, page walk, cache). mmu
// runs in no workload, so the mmu.* kernels are its only rows.
func mmuAccess(n int) error {
	m := mmu.New(mmu.PentiumII())
	for i := 0; i < n; i++ {
		a := uint64(i*4) % (4 << 20)
		m.Access(0x2000_0000+a, a)
	}
	sink += uint64(m.Seconds() * 1e9)
	return nil
}

// mmuSlowdown: Figure 5's quantity at 32 views below (1 MB) and at
// (16 MB: n*N = 512 MB) the breaking point, sampling every 16th byte to
// keep the 16 MB traversal within a second.
func mmuSlowdown(quick bool) ([]float64, error) {
	hw := mmu.PentiumII()
	var out []float64
	for _, size := range []int{1 << 20, 16 << 20} {
		tr := mmu.Traversal{ArrayBytes: size, Views: 32, Passes: 1, Warmup: 1, Stride: 16}
		if quick {
			tr.Stride *= quickDiv
		}
		ratio, _, _ := tr.Slowdown(hw)
		out = append(out, ratio)
	}
	return out, nil
}

// coreMPT: minipage-table allocation and address lookup.
func coreMPT(quick bool) ([]float64, error) {
	const n = 16384
	layout, err := core.NewLayout(8<<20, 16)
	if err != nil {
		return nil, err
	}
	vas := make([]uint64, n)
	alloc, err := perOp(n, func(n int) error {
		t := core.NewMPT(layout, core.GrainMinipage, 0)
		for i := 0; i < n; i++ {
			_, va, err := t.Alloc(256)
			if err != nil {
				return err
			}
			vas[i] = va
		}
		return nil
	})(quick)
	if err != nil {
		return nil, err
	}
	t := core.NewMPT(layout, core.GrainMinipage, 0)
	for i := range vas {
		if _, vas[i], err = t.Alloc(256); err != nil {
			return nil, err
		}
	}
	lookup, err := perOp(50*n, func(n int) error {
		for i := 0; i < n; i++ {
			if _, ok := t.Lookup(vas[i%len(vas)] + 8); !ok {
				return fmt.Errorf("core: lookup of allocated address %#x failed", vas[i%len(vas)])
			}
		}
		return nil
	})(quick)
	return []float64{alloc, lookup}, err
}

// msgHop: the full fastmsg one-hop path with pooled envelopes, as the
// DSM drives it; armed adds the reliability layer with no fault ever
// firing (the plan's only entry is a partition in the far future), so
// every frame pays for sequence numbers, acks and retransmit timers.
// Returns host ns and heap allocations per hop.
func msgHop(armed, quick bool) ([]float64, error) {
	var allocs float64
	ns, err := perOp(100_000, func(n int) error {
		eng := sim.NewEngine(1)
		nw := fastmsg.New(eng, 2, fastmsg.DefaultParams())
		if armed {
			far := sim.Time(1 << 60)
			inj, err := faultnet.NewInjector(faultnet.Plan{
				Partitions: []faultnet.Partition{{A: 0b01, B: 0b10, From: far, Until: far + 1}},
			}, 2, 1)
			if err != nil {
				return err
			}
			nw.InstallFaults(inj)
		}
		got := 0
		nw.Endpoint(1).SetHandler(func(*sim.Proc, *fastmsg.Message) { got++ })
		eng.Spawn("sender", func(p *sim.Proc) {
			ep := nw.Endpoint(0)
			for i := 0; i < n; i++ {
				m := ep.AllocMessage()
				m.Size = 32
				ep.Send(p, 1, m)
			}
			for got < n {
				p.Sleep(10 * sim.Millisecond)
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := eng.Run()
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
		return err
	})(quick)
	return []float64{ns, allocs}, err
}

// twinDiff4K: run-length diff creation and application for a 4 KB page
// with 32 dirty words — work only lrc and lrc-mw do.
func twinDiff4K(quick bool) ([]float64, error) {
	page := make([]byte, vm.PageSize)
	twin := twindiff.Twin(page)
	for i := 0; i < len(page); i += 128 {
		page[i] = 0xFF
	}
	var enc []byte
	diff, err := perOp(20_000, func(n int) error {
		for i := 0; i < n; i++ {
			var err error
			if enc, err = twindiff.AppendDiff(enc[:0], twin, page); err != nil {
				return err
			}
		}
		return nil
	})(quick)
	if err != nil {
		return nil, err
	}
	apply, err := perOp(20_000, func(n int) error {
		for i := 0; i < n; i++ {
			if err := twindiff.ApplyEncoded(twin, enc); err != nil {
				return err
			}
		}
		return nil
	})(quick)
	return []float64{diff, apply}, err
}

func histAdd(n int) error {
	var h stats.Histogram
	for i := 0; i < n; i++ {
		h.Add(sim.Duration(i & 0xfffff))
	}
	sink += h.Count()
	return nil
}

// kernelCluster builds the small cluster the paper-cost kernels run on,
// with the paper's default (NT) timers and a fixed seed.
func kernelCluster(hosts int) (*millipage.Cluster, error) {
	return millipage.NewCluster(millipage.Config{Hosts: hosts, SharedMemory: 1 << 20, Views: 4, Seed: 42})
}

// threadTime sums what pick selects over the threads of one host.
func threadTime(r *millipage.Report, host int, pick func(millipage.ThreadReport) millipage.Duration) millipage.Duration {
	var d millipage.Duration
	for _, t := range r.Threads {
		if t.Host == host {
			d += pick(t)
		}
	}
	return d
}

const fetchTrials = 8

// readFetch: host 1 read-faults minipages of the given size owned by
// host 0 (Section 4.2: 204 us for 128 B, 314 us for 4 KB).
func readFetch(size int) (float64, error) {
	cl, err := kernelCluster(2)
	if err != nil {
		return 0, err
	}
	addrs := make([]millipage.Addr, fetchTrials)
	report, err := cl.Run(func(w *millipage.Worker) {
		buf := make([]byte, size)
		if w.Host() == 0 {
			for i := range addrs {
				addrs[i] = w.Malloc(size)
				w.Write(addrs[i], buf)
			}
		}
		w.Barrier()
		if w.Host() == 1 {
			for _, a := range addrs {
				w.Read(a, buf)
			}
		}
		w.Barrier()
	})
	if err != nil {
		return 0, err
	}
	d := threadTime(report, 1, func(t millipage.ThreadReport) millipage.Duration { return t.ReadFault })
	return d.Microseconds() / fetchTrials, nil
}

// writeFetch: a write fault that must first invalidate `copies` read
// copies (Section 4.2: 366 us for 128 B and 7 copies).
func writeFetch(size, copies int) (float64, error) {
	writer := copies + 1
	cl, err := kernelCluster(writer + 1)
	if err != nil {
		return 0, err
	}
	addrs := make([]millipage.Addr, fetchTrials)
	report, err := cl.Run(func(w *millipage.Worker) {
		buf := make([]byte, size)
		if w.Host() == 0 {
			for i := range addrs {
				addrs[i] = w.Malloc(size)
				w.Write(addrs[i], buf)
			}
		}
		w.Barrier()
		if w.Host() < copies {
			for _, a := range addrs {
				w.Read(a, buf)
			}
		}
		w.Barrier()
		if w.Host() == writer {
			for _, a := range addrs {
				w.Write(a, buf)
			}
		}
		w.Barrier()
	})
	if err != nil {
		return 0, err
	}
	d := threadTime(report, writer, func(t millipage.ThreadReport) millipage.Duration { return t.WriteFlt })
	return d.Microseconds() / fetchTrials, nil
}

func fetchCosts(bool) ([]float64, error) {
	r128, err := readFetch(128)
	if err != nil {
		return nil, err
	}
	r4k, err := readFetch(4096)
	if err != nil {
		return nil, err
	}
	w128, err := writeFetch(128, 7)
	return []float64{r128, r4k, w128}, err
}

// synchCosts: an 8-host barrier (paper: 153 us) and an uncontended
// lock+unlock from a non-manager host (paper: 67-80 us).
func synchCosts(bool) ([]float64, error) {
	const trials = 16
	synch := func(t millipage.ThreadReport) millipage.Duration { return t.Synch }
	cl, err := kernelCluster(8)
	if err != nil {
		return nil, err
	}
	report, err := cl.Run(func(w *millipage.Worker) {
		for i := 0; i < trials; i++ {
			w.Barrier()
		}
	})
	if err != nil {
		return nil, err
	}
	barrier := threadTime(report, 0, synch).Microseconds() / trials

	if cl, err = kernelCluster(2); err != nil {
		return nil, err
	}
	report, err = cl.Run(func(w *millipage.Worker) {
		if w.Host() == 1 {
			for i := 0; i < trials; i++ {
				w.Lock(5)
				w.Unlock(5)
			}
		}
		w.Barrier()
	})
	if err != nil {
		return nil, err
	}
	// Host 1's synch time also holds its wait at the closing barrier for
	// host 0, which arrives at once: the barrier's own cost, as in the
	// repo's costs table.
	lock := threadTime(report, 1, synch).Microseconds() / trials
	return []float64{barrier, lock}, nil
}

// pingpongGroup: two hosts take turns writing one word, a barrier
// between turns, through the root Worker API under one protocol — the
// only place all four protocol kernels are timed side by side. It
// reports host ns and virtual us per turn.
func pingpongGroup(prefix, protocol string) kernelGroup {
	const turns = 2000
	return kernelGroup{
		Span: "kernel/" + prefix + ".pingpong",
		Defs: []kernelDef{hostNs(prefix + ".pingpong_ns"), simUs(prefix+".pingpong_us", 0, 0)},
		Run: func(quick bool) ([]float64, error) {
			turns := turns
			if quick {
				turns /= quickDiv
			}
			cl, err := millipage.NewCluster(millipage.Config{
				Protocol: protocol, Hosts: 2, SharedMemory: 1 << 16, Views: 1, Seed: 42, PerfectTimers: true,
			})
			if err != nil {
				return nil, err
			}
			var addr millipage.Addr
			var virt millipage.Duration
			t0 := time.Now()
			_, err = cl.Run(func(w *millipage.Worker) {
				if w.Host() == 0 {
					addr = w.Malloc(64)
				}
				w.Barrier()
				start := w.Now()
				for turn := 0; turn < turns; turn++ {
					if turn%2 == w.Host() {
						w.WriteU64(addr, uint64(turn))
					}
					w.Barrier()
				}
				if w.Host() == 0 {
					virt = w.Now() - start
				}
			})
			wall := time.Since(t0)
			return []float64{float64(wall) / float64(turns), virt.Microseconds() / float64(turns)}, err
		},
	}
}
