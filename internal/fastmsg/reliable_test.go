package fastmsg

// Transport-level conformance for the reliability layer: exactly-once,
// per-link-FIFO delivery over a wire that drops, duplicates, delays,
// partitions and crashes — plus the envelope-lifecycle guard
// regressions (pooled envelopes retained past their handler).

import (
	"fmt"
	"slices"
	"testing"

	"millipage/internal/faultnet"
	"millipage/internal/sim"
)

// relHarness runs `senders` hosts each streaming msgs sequenced payloads
// to every other host under plan, after setup if any, and asserts every
// link delivered exactly 0..msgs-1 in order.
func relHarness(t *testing.T, hosts, msgs int, plan faultnet.Plan, seed int64, setup ...func(*Network)) *Network {
	t.Helper()
	eng := sim.NewEngine(seed)
	nw := New(eng, hosts, DefaultParams())
	inj, err := faultnet.NewInjector(plan, hosts, seed)
	must(t, err)
	nw.InstallFaults(inj)
	for _, f := range setup {
		f(nw)
	}

	// got[dst][src] collects the payload sequence each link delivered.
	got := make([][][]int, hosts)
	for i := range got {
		got[i] = make([][]int, hosts)
	}
	for i := 0; i < hosts; i++ {
		i := i
		nw.Endpoint(i).SetHandler(func(p *sim.Proc, m *Message) {
			got[i][m.From] = append(got[i][m.From], m.Payload.(int))
		})
	}

	const limit = 30 * sim.Second
	eng.At(sim.Time(limit), eng.Stop)

	total := hosts * (hosts - 1) * msgs
	delivered := func() int {
		n := 0
		for i := range got {
			for j := range got[i] {
				n += len(got[i][j])
			}
		}
		return n
	}
	for i := 0; i < hosts; i++ {
		i := i
		eng.Spawn(fmt.Sprintf("sender-%d", i), func(p *sim.Proc) {
			ep := nw.Endpoint(i)
			for k := 0; k < msgs; k++ {
				for j := 0; j < hosts; j++ {
					if j == i {
						continue
					}
					m := ep.AllocMessage()
					m.Size = 32
					m.Payload = k
					ep.Send(p, j, m)
				}
				p.Sleep(50 * sim.Microsecond)
			}
			// Keep one non-daemon process alive until every link drains.
			if i == 0 {
				for delivered() < total {
					p.Sleep(sim.Millisecond)
				}
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if d := delivered(); d != total {
		t.Fatalf("delivered %d of %d messages before the %v watchdog", d, total, limit)
	}
	for dst := range got {
		for src := range got[dst] {
			if src == dst {
				continue
			}
			seq := got[dst][src]
			if len(seq) != msgs {
				t.Fatalf("link %d->%d: delivered %d messages, want %d", src, dst, len(seq), msgs)
			}
			for k, v := range seq {
				if v != k {
					t.Fatalf("link %d->%d: position %d got payload %d (reordered or duplicated delivery)", src, dst, k, v)
				}
			}
		}
	}
	return nw
}

func TestReliableDropHeavy(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		nw := relHarness(t, 3, 40, faultnet.Plan{Drop: 0.3, Dup: 0.15}, seed)
		var retrans uint64
		for i := 0; i < 3; i++ {
			retrans += nw.Endpoint(i).Stats().Retransmits
		}
		if retrans == 0 {
			t.Error("30% drop produced zero retransmissions — faults are not being injected")
		}
	}
}

func TestReliableReorderHeavy(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		nw := relHarness(t, 3, 40, faultnet.Plan{Reorder: 0.6, Jitter: 2 * sim.Millisecond}, seed)
		var ooo uint64
		for i := 0; i < 3; i++ {
			ooo += nw.Endpoint(i).Stats().OutOfOrder
		}
		if ooo == 0 {
			t.Error("60% reorder produced zero out-of-order buffering — jitter is not biting")
		}
	}
}

func TestReliableEverything(t *testing.T) {
	plan := faultnet.Plan{
		Drop: 0.2, Dup: 0.1, Reorder: 0.3, Jitter: 3 * sim.Millisecond,
		Partitions: []faultnet.Partition{
			{A: 0b001, B: 0b110, From: sim.Time(5 * sim.Millisecond), Until: sim.Time(60 * sim.Millisecond)},
		},
		Crashes: []faultnet.Crash{
			{Host: 1, At: sim.Time(20 * sim.Millisecond), RestartAt: sim.Time(80 * sim.Millisecond)},
		},
	}
	relHarness(t, 3, 30, plan, 7)
}

// TestReliablePartitionHeal: traffic across an active partition stalls
// and is delivered after the heal, in order.
func TestReliablePartitionHeal(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, DefaultParams())
	cut := faultnet.Partition{A: 0b01, B: 0b10,
		From: 0, Until: sim.Time(40 * sim.Millisecond)}
	inj, err := faultnet.NewInjector(faultnet.Plan{Partitions: []faultnet.Partition{cut}}, 2, 1)
	must(t, err)
	nw.InstallFaults(inj)
	var gotAt []sim.Time
	var payloads []int
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {
		gotAt = append(gotAt, p.Now())
		payloads = append(payloads, m.Payload.(int))
	})
	nw.Endpoint(0).SetHandler(func(p *sim.Proc, m *Message) {})
	eng.At(sim.Time(2*sim.Second), eng.Stop)
	eng.Spawn("sender", func(p *sim.Proc) {
		ep := nw.Endpoint(0)
		for k := 0; k < 5; k++ {
			m := ep.AllocMessage()
			m.Size = 32
			m.Payload = k
			ep.Send(p, 1, m)
		}
		for len(payloads) < 5 {
			p.Sleep(sim.Millisecond)
		}
	})
	mustRun(t, eng)
	if len(payloads) != 5 {
		t.Fatalf("delivered %d of 5 across the partition", len(payloads))
	}
	for i, at := range gotAt {
		if at < cut.Until {
			t.Errorf("message %d delivered at %v, inside the partition window", i, at)
		}
	}
	for i, v := range payloads {
		if v != i {
			t.Fatalf("position %d got payload %d after heal", i, v)
		}
	}
}

// TestReliableCrashRedelivery: messages accepted but not yet serviced at
// the crash are lost from the receive queue, re-delivered by the
// sender's retransmission after restart, and processed exactly once.
func TestReliableCrashRedelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, DefaultParams())
	crashAt := sim.Time(10 * sim.Millisecond)
	restartAt := sim.Time(50 * sim.Millisecond)
	inj, err := faultnet.NewInjector(faultnet.Plan{
		Crashes: []faultnet.Crash{{Host: 1, At: crashAt, RestartAt: restartAt}},
	}, 2, 1)
	must(t, err)
	nw.InstallFaults(inj)
	var payloads []int
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {
		payloads = append(payloads, m.Payload.(int))
	})
	nw.Endpoint(0).SetHandler(func(p *sim.Proc, m *Message) {})
	eng.At(sim.Time(2*sim.Second), eng.Stop)
	eng.Spawn("sender", func(p *sim.Proc) {
		ep := nw.Endpoint(0)
		// A steady stream across the crash window: some messages are
		// serviced before the crash, some sit in the receive queue when
		// it hits, some arrive while the host is down.
		for k := 0; k < 40; k++ {
			m := ep.AllocMessage()
			m.Size = 32
			m.Payload = k
			ep.Send(p, 1, m)
			p.Sleep(750 * sim.Microsecond)
		}
		for len(payloads) < 40 {
			p.Sleep(sim.Millisecond)
		}
	})
	mustRun(t, eng)
	if len(payloads) != 40 {
		t.Fatalf("delivered %d of 40 across the crash", len(payloads))
	}
	for i, v := range payloads {
		if v != i {
			t.Fatalf("position %d got payload %d — crash redelivery broke exactly-once FIFO", i, v)
		}
	}
	if nw.Endpoint(1).Stats().DroppedDown == 0 {
		t.Error("no frames were dropped while the host was down — the crash window never bit")
	}
}

// TestCrashAtTheFireInstant: a crash landing at the very instant a message
// is handed to the service thread drains what the order of the three
// same-instant events — the fire, the crash, the service thread's wake —
// says it should. The service thread's receive is an engine-side sequence
// that takes the message at the wake event, not before, so: a crash ahead
// of the fire kills the pending record; one between the fire and the wake
// finds the message in the ready queue and wipes it, and the woken thread
// finds nothing and waits on; one after the wake finds the queue empty and
// the message in service, whose handler completes. Either way the
// handler runs exactly once.
func TestCrashAtTheFireInstant(t *testing.T) {
	pr := DefaultParams()
	arrive := sim.Time(pr.WireLatency(32))
	fire := arrive.Add(pr.PollIdle)
	restart := fire.Add(2 * sim.Millisecond)
	for _, tc := range []struct {
		name      string
		schedule  func(eng *sim.Engine, crash func())
		inService bool   // the message was taken before the crash: handled at once
		received  uint64 // hand-offs to the service thread, wiped ones included
	}{
		// Scheduled before the message is even sent: first at its instant.
		{"before the fire", func(eng *sim.Engine, crash func()) { eng.At(fire, crash) }, false, 1},
		// Scheduled after the arrival scheduled the fire, before the fire
		// schedules the wake: between the two.
		{"between fire and wake", func(eng *sim.Engine, crash func()) {
			eng.At(arrive+1, func() { eng.At(fire, crash) })
		}, false, 2},
		// Scheduled from between the two: after the wake.
		{"after the wake", func(eng *sim.Engine, crash func()) {
			eng.At(arrive+1, func() { eng.At(fire, func() { eng.At(fire, crash) }) })
		}, true, 1},
	} {
		eng := sim.NewEngine(1)
		nw := New(eng, 2, pr)
		far := sim.Time(1 << 60)
		inj, err := faultnet.NewInjector(faultnet.Plan{ // armed, and nothing fires by itself
			Partitions: []faultnet.Partition{{A: 0b01, B: 0b10, From: far, Until: far + 1}},
		}, 2, 1)
		must(t, err)
		nw.InstallFaults(inj)
		var handledAt []sim.Time
		nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) { handledAt = append(handledAt, p.Now()) })
		nw.Endpoint(0).SetHandler(func(p *sim.Proc, m *Message) {})
		var crashedAt sim.Time
		var readyAtCrash int
		tc.schedule(eng, func() {
			crashedAt, readyAtCrash = eng.Now(), nw.Endpoint(1).ready.Len()
			nw.rel.crash(1)
		})
		eng.At(restart, func() { nw.rel.restart(1) })
		m := nw.Endpoint(0).AllocMessage()
		m.Size = 32
		nw.Endpoint(0).Send(nil, 1, m) // at time zero, from engine context: no send CPU
		eng.Spawn("watch", func(p *sim.Proc) {
			for len(handledAt) == 0 {
				p.Sleep(sim.Millisecond)
			}
			p.Sleep(sim.Millisecond)
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if crashedAt != fire {
			t.Fatalf("%s: crashed at %v, want the fire instant %v", tc.name, crashedAt, fire)
		}
		if want := tc.received == 2; (readyAtCrash == 1) != want {
			t.Errorf("%s: the crash found %d messages in the ready queue", tc.name, readyAtCrash)
		}
		if len(handledAt) != 1 {
			t.Fatalf("%s: handler ran %d times, want once", tc.name, len(handledAt))
		}
		if at := handledAt[0]; tc.inService && at != fire.Add(pr.RecvCPU(32)) {
			t.Errorf("%s: handled at %v, want %v: in service when the crash hit, it completes", tc.name, at, fire.Add(pr.RecvCPU(32)))
		} else if !tc.inService && at < restart {
			t.Errorf("%s: handled at %v, before the restart at %v: the crash did not wipe it", tc.name, at, restart)
		}
		if got := nw.Endpoint(1).Stats().Received; got != tc.received {
			t.Errorf("%s: %d hand-offs to the service thread, want %d", tc.name, got, tc.received)
		}
	}
}

// TestCompletedEnvelopeIsGhost pins the ownership rule the protocols'
// pools rest on: Payload and Data belong to the handler, which runs
// exactly once per message, so it may recycle them on the spot. Here it
// does — the sender's next message reuses the same box and buffer — while
// the wire drops and duplicates half the frames and the receiver crashes
// mid-stream. No handler may ever see a box or buffer it did not get
// first-hand, and once a handler returns, the envelope the send log,
// duplicates and retransmits still share must carry neither.
func TestCompletedEnvelopeIsGhost(t *testing.T) {
	type box struct {
		v    int
		free bool
	}
	const msgs = 200
	eng := sim.NewEngine(3)
	nw := New(eng, 2, DefaultParams())
	inj, err := faultnet.NewInjector(faultnet.Plan{
		Drop: 0.5, Dup: 0.5,
		Crashes: []faultnet.Crash{{Host: 1, At: sim.Time(20 * sim.Millisecond), RestartAt: sim.Time(45 * sim.Millisecond)}},
	}, 2, 3)
	must(t, err)
	nw.InstallFaults(inj)
	var boxes []*box
	var bufs [][]byte
	next := 0
	var inHandler *Message
	// Simulated processes are not the test goroutine: report and stop.
	bad := func(format string, args ...any) {
		t.Errorf(format, args...)
		eng.Stop()
	}
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {
		b := m.Payload.(*box)
		if b.free || b.v != next || len(m.Data) != 8 || int(m.Data[0]) != next%251 {
			bad("message %d: handler got box %+v data %v — recycled memory reached a handler", next, *b, m.Data)
			return
		}
		next++
		b.free = true
		boxes = append(boxes, b)
		m.Data[0] = 0xDB
		bufs = append(bufs, m.Data)
		inHandler = m
		p.Sleep(200 * sim.Microsecond) // retransmits of m land while it is in service
		inHandler = nil
	})
	nw.Endpoint(0).SetHandler(func(p *sim.Proc, m *Message) {})
	eng.At(sim.Time(30*sim.Second), eng.Stop)
	eng.Spawn("sender", func(p *sim.Proc) {
		ep := nw.Endpoint(0)
		for k := 0; k < msgs; k++ {
			b, data := &box{}, make([]byte, 8)
			if n := len(boxes); n > 0 {
				b, boxes = boxes[n-1], boxes[:n-1]
				data, bufs = bufs[n-1], bufs[:n-1]
			}
			*b = box{v: k}
			data[0] = byte(k % 251)
			m := ep.AllocMessage()
			m.Size = 40
			m.Payload, m.Data = b, data
			ep.Send(p, 1, m)
			p.Sleep(300 * sim.Microsecond)
			for _, held := range nw.rel.hosts[0].send[1].outstanding() {
				if done := held.Seq < nw.rel.hosts[1].recv[0].nextProcess; done && (held.Payload != nil || held.Data != nil) {
					bad("envelope seq %d still carries payload %v data %v after its handler returned", held.Seq, held.Payload, held.Data)
					return
				} else if !done && held != inHandler && held.Payload == nil {
					bad("envelope seq %d lost its payload before any handler ran", held.Seq)
					return
				}
			}
		}
		for next < msgs {
			p.Sleep(sim.Millisecond)
		}
	})
	mustRun(t, eng)
	if t.Failed() {
		return
	}
	if next != msgs {
		t.Fatalf("delivered %d of %d", next, msgs)
	}
	st := nw.Endpoint(1).Stats()
	if st.DupsDropped == 0 || st.DroppedDown == 0 || nw.Endpoint(0).Stats().Retransmits == 0 {
		t.Fatalf("the wire never misbehaved: %+v", st)
	}
}

// TestReliableDeterminism: two runs with identical plan and seed produce
// identical virtual end times and identical transport counters.
func TestReliableDeterminism(t *testing.T) {
	plan := faultnet.Plan{Drop: 0.25, Dup: 0.1, Reorder: 0.4, Jitter: 2 * sim.Millisecond}
	type fingerprint struct {
		elapsed sim.Time
		stats   [3]Stats
	}
	run := func() fingerprint {
		eng := sim.NewEngine(5)
		nw := New(eng, 3, DefaultParams())
		inj, err := faultnet.NewInjector(plan, 3, 5)
		must(t, err)
		nw.InstallFaults(inj)
		got := 0
		for i := 0; i < 3; i++ {
			nw.Endpoint(i).SetHandler(func(p *sim.Proc, m *Message) { got++ })
		}
		eng.At(sim.Time(10*sim.Second), eng.Stop)
		eng.Spawn("sender", func(p *sim.Proc) {
			ep := nw.Endpoint(0)
			for k := 0; k < 60; k++ {
				for j := 1; j < 3; j++ {
					m := ep.AllocMessage()
					m.Size = 64
					m.Payload = k
					ep.Send(p, j, m)
				}
				p.Sleep(100 * sim.Microsecond)
			}
			for got < 120 {
				p.Sleep(sim.Millisecond)
			}
		})
		mustRun(t, eng)
		var fp fingerprint
		fp.elapsed = eng.Now()
		for i := 0; i < 3; i++ {
			fp.stats[i] = nw.Endpoint(i).Stats()
		}
		return fp
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical fault runs diverged:\n  run1: %+v\n  run2: %+v", a, b)
	}
}

// ---- Envelope lifecycle guards (pooled-envelope retention hazard) ----

func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
	}()
	fn()
}

// TestEnvelopeDoubleSend: re-sending a pooled envelope that is already
// in flight panics at the second Send.
func TestEnvelopeDoubleSend(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, DefaultParams())
	ep := nw.Endpoint(0)
	m := ep.AllocMessage()
	m.Size = 32
	ep.Send(nil, 1, m)
	expectPanic(t, "single-send", func() { ep.Send(nil, 1, m) })
}

// TestEnvelopeDoubleRecycle: recycling an envelope twice (the double
// free) trips the state check instead of aliasing the pool.
func TestEnvelopeDoubleRecycle(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, DefaultParams())
	m := nw.Endpoint(0).AllocMessage()
	m.state = msgDelivered // as serve() marks it before the handler runs
	nw.Endpoint(0).recycleMessage(m)
	expectPanic(t, "double free", func() { nw.Endpoint(0).recycleMessage(m) })
}

// TestEnvelopeRetainedResend is the regression for the retention hazard:
// a handler that stores a pooled envelope and re-sends it after its
// handler returned (when the pool has already reclaimed it) panics
// instead of corrupting whatever transaction reused the envelope.
func TestEnvelopeRetainedResend(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, DefaultParams())
	var retained *Message
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {
		retained = m // the bug: keeping a pooled envelope past return
	})
	eng.Spawn("sender", func(p *sim.Proc) {
		ep := nw.Endpoint(0)
		m := ep.AllocMessage()
		m.Size = 32
		ep.Send(p, 1, m)
		for retained == nil {
			p.Sleep(sim.Millisecond)
		}
		p.Sleep(sim.Millisecond) // let the service thread recycle it
	})
	mustRun(t, eng)
	if retained == nil {
		t.Fatal("handler never ran")
	}
	if retained.state != msgRecycled {
		t.Fatalf("retained envelope state = %d, want recycled", retained.state)
	}
	expectPanic(t, "retained", func() { nw.Endpoint(1).Send(nil, 0, retained) })
}

// TestInstallFaultsAfterTraffic: arming faults mid-run is a setup bug.
func TestInstallFaultsAfterTraffic(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, DefaultParams())
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {})
	eng.Spawn("sender", func(p *sim.Proc) {
		m := nw.Endpoint(0).AllocMessage()
		m.Size = 32
		nw.Endpoint(0).Send(p, 1, m)
	})
	mustRun(t, eng)
	inj, err := faultnet.NewInjector(faultnet.Plan{Drop: 0.1}, 2, 1)
	must(t, err)
	expectPanic(t, "after traffic", func() { nw.InstallFaults(inj) })
}

// TestLostFrameResentAtWireRoundTrip: on an idle two-host link, a frame
// lost to its first transmission is re-sent at the wire's round trip,
// not at RTOMin: the admission ack does not wait for the receiver's
// poller or sweeper, so the timer need not either. The frame is served at
// about 19 µs; the bound, 100 µs, leaves room for that and is 30 times
// below the default RTOMin of 3 ms, at which a lost frame used to wait.
func TestLostFrameResentAtWireRoundTrip(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, DefaultParams())
	inj, err := faultnet.NewInjector(faultnet.Plan{ // loses exactly the frame sent at time zero
		Partitions: []faultnet.Partition{{A: 0b01, B: 0b10, From: 0, Until: 1}},
	}, 2, 1)
	must(t, err)
	nw.InstallFaults(inj)
	var servedAt []sim.Time
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) { servedAt = append(servedAt, p.Now()) })
	m := nw.Endpoint(0).AllocMessage()
	m.Size = 32
	nw.Endpoint(0).Send(nil, 1, m)
	eng.Spawn("watch", func(p *sim.Proc) { p.Sleep(10 * sim.Millisecond) })
	mustRun(t, eng)
	if st := nw.Endpoint(0).Stats(); st.Partitioned != 1 || st.Retransmits != 1 {
		t.Fatalf("sender stats %+v, want the first transmission partitioned and one retransmit", st)
	}
	if len(servedAt) != 1 || servedAt[0] > sim.Time(100*sim.Microsecond) {
		t.Fatalf("served at %v, want once within 100µs of the send", servedAt)
	}
}

// TestResyncAfterCrashLosesAdmittedFrames: host 2 crashes holding frames
// from hosts 0 and 1 that it admitted (so their senders stopped timing
// them) but had not serviced, and the first resync ack it sends host 0
// at its restart falls into a partition. Its resync chain must re-send
// until host 0 re-sends the lost tail: every frame is still handled
// exactly once, in order. Without the chain, host 0 never learns of the
// restart and the run stalls.
func TestResyncAfterCrashLosesAdmittedFrames(t *testing.T) {
	const msgs = 6
	crashAt, restartAt := sim.Time(2500*sim.Microsecond), sim.Time(5*sim.Millisecond)
	eng := sim.NewEngine(1)
	nw := New(eng, 3, DefaultParams())
	inj, err := faultnet.NewInjector(faultnet.Plan{
		Crashes:    []faultnet.Crash{{Host: 2, At: crashAt, RestartAt: restartAt}},
		Partitions: []faultnet.Partition{{A: 0b001, B: 0b100, From: restartAt, Until: restartAt + 1}},
	}, 3, 1)
	must(t, err)
	nw.InstallFaults(inj)
	got := [2][]int{}
	nw.Endpoint(2).SetHandler(func(p *sim.Proc, m *Message) {
		got[m.From] = append(got[m.From], m.Payload.(int))
		p.Sleep(sim.Millisecond) // the rest queue up, admitted
	})
	for h := 0; h < 2; h++ {
		ep := nw.Endpoint(h)
		ep.SetHandler(func(p *sim.Proc, m *Message) {})
		for k := 0; k < msgs; k++ {
			m := ep.AllocMessage()
			m.Size, m.Payload = 32, k
			ep.Send(nil, 2, m)
		}
	}
	var lost [2]uint64
	eng.At(restartAt, func() {
		for h := range lost {
			rs := &nw.rel.hosts[2].recv[h]
			lost[h] = rs.lost - rs.nextAccept
		}
	})
	eng.Spawn("watch", func(p *sim.Proc) {
		for p.Now() < sim.Time(sim.Second) && len(got[0])+len(got[1]) < 2*msgs {
			p.Sleep(sim.Millisecond)
		}
	})
	mustRun(t, eng)
	if lost[0] == 0 || lost[1] == 0 {
		t.Fatalf("the crash lost %v admitted frames from hosts 0 and 1, want some from each", lost)
	}
	if st := nw.Endpoint(2).Stats(); st.Partitioned != 1 {
		t.Fatalf("host 2 stats %+v, want its first resync to host 0 partitioned", st)
	}
	for h, seq := range got {
		if len(seq) != msgs {
			t.Fatalf("host %d's frames handled %v, want all %d", h, seq, msgs)
		}
		for k, v := range seq {
			if v != k {
				t.Fatalf("host %d's frames handled %v, want each once, in order", h, seq)
			}
		}
	}
}

// TestAckToACrashedHostIsLost: host 0 crashes with its frame's admission
// ack on the wire to it. The ack is lost with the crash, so the restart
// flush re-sends the frame, a duplicate host 1 drops; the frame is
// handled once.
func TestAckToACrashedHostIsLost(t *testing.T) {
	pr := DefaultParams()
	eng := sim.NewEngine(1)
	nw := New(eng, 2, pr)
	crash := sim.Time(pr.WireLatency(32) + pr.WireBase/2)
	inj, err := faultnet.NewInjector(faultnet.Plan{Crashes: []faultnet.Crash{{Host: 0, At: crash, RestartAt: crash.Add(sim.Millisecond)}}}, 2, 1)
	must(t, err)
	nw.InstallFaults(inj)
	handled := 0
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) { handled++ })
	send(nil, nw.Endpoint(0), 1, 32, 0)
	eng.Spawn("watch", func(p *sim.Proc) { p.Sleep(10 * sim.Millisecond) })
	mustRun(t, eng)
	if st := nw.Endpoint(1).Stats(); handled != 1 || st.DupsDropped != 1 {
		t.Fatalf("frame handled %d times, host 1 stats %+v; want it handled once and its resend dropped", handled, st)
	}
}

// TestResyncChainPerCrash: busy host 1 loses admitted frames in three
// crashes, each restart's ack lost to a partition. The second crash and
// restart fall between two resends of the first restart's resync chain,
// which goes on alone, its backoff started over; the third comes after
// that chain ended and starts its own. A chain re-sends at T, 3T, 5T...
// after the restart that (re)started it, T the first timeout, and every
// frame is handled once.
func TestResyncChainPerCrash(t *testing.T) {
	pr := DefaultParams()
	pr.PerfectTimers, pr.SweepShortLo = true, 5*sim.Millisecond // nothing is served before the sweep
	T := 2*pr.WireLatency(32) + 4*pr.WireBase
	r1 := sim.Time(200 * sim.Microsecond)
	var cut []faultnet.Partition
	for _, at := range []sim.Duration{0, 5 * T / 2, 7 * T} {
		cut = append(cut, faultnet.Partition{A: 0b01, B: 0b10, From: r1.Add(at), Until: r1.Add(at) + 1})
	}
	eng := sim.NewEngine(1)
	nw := New(eng, 2, pr)
	inj, err := faultnet.NewInjector(faultnet.Plan{Partitions: cut}, 2, 1)
	must(t, err)
	nw.InstallFaults(inj)
	var got []int
	var fires []sim.Duration // by half T after the first restart
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) { got = append(got, m.Payload.(int)) })
	nw.Endpoint(1).SetBusy(+1)
	for k := range 8 {
		send(nil, nw.Endpoint(0), 1, 32, k)
	}
	fire := nw.rel.timerFn
	nw.rel.timerFn = func(a any) {
		if a.(*timerRec).resync {
			fires = append(fires, 2*eng.Now().Sub(r1)/T)
		}
		fire(a)
	}
	for _, c := range cut {
		eng.At(c.From.Add(-T/2), func() { nw.rel.crash(1) })
		eng.At(c.From, func() { nw.rel.restart(1) })
	}
	eng.Spawn("watch", func(p *sim.Proc) { p.Sleep(20 * sim.Millisecond) })
	mustRun(t, eng)
	if !slices.Equal(fires, []sim.Duration{2, 6, 10, 16, 20}) || !slices.Equal(got, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("resync chains fired at %v half-timeouts after the first restart, want 2 6 10 16 20; handler ran for %v, want 0 to 7 once each, in order", fires, got)
	}
}

// TestCrashUnderTheHandlerDeliversOnce: a host that crashes while its
// service thread is still processing a frame, and restarts before it is
// done, asks for the link again from the frame its floor rolled back to;
// the resent copy of the frame in service is a duplicate, dropped, and
// the handler runs once for each message.
func TestCrashUnderTheHandlerDeliversOnce(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, DefaultParams())
	inj, err := faultnet.NewInjector(faultnet.Plan{
		Crashes: []faultnet.Crash{{Host: 1, At: sim.Time(sim.Millisecond), RestartAt: sim.Time(2 * sim.Millisecond)}},
	}, 2, 1)
	must(t, err)
	nw.InstallFaults(inj)
	var got []int
	nw.Endpoint(1).SetHandler(func(p *sim.Proc, m *Message) {
		got = append(got, m.Payload.(int))
		p.Sleep(5 * sim.Millisecond) // still in service across the crash and the restart
	})
	nw.Endpoint(0).SetHandler(func(p *sim.Proc, m *Message) {})
	eng.At(sim.Time(sim.Second), eng.Stop)
	eng.Spawn("sender", func(p *sim.Proc) {
		for k := 0; k < 3; k++ {
			send(p, nw.Endpoint(0), 1, 32, k)
		}
		for len(got) < 3 {
			p.Sleep(sim.Millisecond)
		}
	})
	mustRun(t, eng)
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("handler ran for %v, want each of 0, 1, 2 once, in order", got)
	}
	if nw.Endpoint(1).Stats().DupsDropped == 0 {
		t.Error("no duplicate dropped: the crash did not land under the handler")
	}
}

// TestCrashRewindsThePendingList: host 1 crashes with two records fired
// off the head of its pending list and a third still waiting for its poll
// event. The crash empties the list, its head included. After the
// restart the resent messages arrive while host 1 is busy, and its
// busy→idle transition walks the list and hands them to the poller: each
// message is handled once, in order, long before the busy host's
// sweeper would have run, and nothing is left in the list.
func TestCrashRewindsThePendingList(t *testing.T) {
	pr := DefaultParams()
	pr.PerfectTimers, pr.SweepShortLo = true, 5*sim.Millisecond // a sweep tick comes too late
	eng := sim.NewEngine(1)
	nw := New(eng, 2, pr)
	far := sim.Time(1 << 60)
	inj, err := faultnet.NewInjector(faultnet.Plan{ // armed, and nothing fires by itself
		Partitions: []faultnet.Partition{{A: 0b01, B: 0b10, From: far, Until: far + 1}},
	}, 2, 1)
	must(t, err)
	nw.InstallFaults(inj)
	ep := nw.Endpoint(1)
	var got []int
	var last sim.Time
	ep.SetHandler(func(p *sim.Proc, m *Message) { got, last = append(got, m.Payload.(int)), p.Now() })
	nw.Endpoint(0).SetHandler(func(p *sim.Proc, m *Message) {})
	// Arrivals W, W+1 and W+2 µs fire PollIdle after each: the crash at
	// W+4.5 µs finds the first two fired and the third pending.
	for k := range 3 {
		eng.At(sim.Time(k)*sim.Time(sim.Microsecond), func() { send(nil, nw.Endpoint(0), 1, 32, k) })
	}
	crash := sim.Time(pr.WireLatency(32) + pr.PollIdle + 1500*sim.Nanosecond)
	restart := crash.Add(sim.Millisecond)
	eng.At(crash, func() {
		if ep.pendHead != 2 || len(ep.pending) != 3 {
			t.Errorf("at the crash the pending list is %d records from head %d, want 3 from 2", len(ep.pending), ep.pendHead)
		}
		nw.rel.crash(1)
	})
	eng.At(restart, func() {
		nw.rel.restart(1)
		ep.SetBusy(+1)
	})
	idle := restart.Add(500 * sim.Microsecond) // after the resends arrived
	eng.At(idle, func() { ep.SetBusy(-1) })
	eng.Spawn("watch", func(p *sim.Proc) { p.Sleep(restart.Add(20 * sim.Millisecond).Sub(p.Now())) })
	mustRun(t, eng)
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("handler ran for %v, want each of 0, 1, 2 once, in order", got)
	}
	if last > idle.Add(sim.Millisecond) {
		t.Errorf("last message handled at %v, want soon after host 1 went idle at %v", last, idle)
	}
	if len(ep.pending) != 0 || ep.pendHead != 0 {
		t.Errorf("%d records left in the pending list, head %d", len(ep.pending), ep.pendHead)
	}
}
