// Package serve turns the DSM into a serving substrate: a sharded
// key-value/session-cache service whose backing store is Millipage
// minipages, driven by an open-loop workload generator that multiplexes
// up to millions of simulated clients over the cluster's threads.
//
// Layout: keys hash to buckets; each bucket is one shared allocation —
// one minipage — holding an 8-byte slot per resident key, so every GET
// and PUT is a real shared-memory access that exercises the configured
// protocol's fault/fetch/invalidate machinery. A PUT takes the bucket's
// cluster lock, increments the key's sequence number and stores
// (seq, payload(key, seq)) as one 64-bit word; a GET reads the word —
// lock-free under the sequentially consistent protocols, under the
// bucket lock on the LRC protocols (their data-race-free contract).
//
// Every response is validated in-line against the oracle the payload
// encoding defines: the value half of a slot must equal
// payload(key, seq) for the sequence half — any torn, lost or cross-key
// write shows up immediately — and a per-client monotonicity check turns
// the sequence numbers into a staleness detector (a client that saw
// version s of a key must never be served s' < s). After the final
// barrier the harness replays an in-process oracle map: every key's
// final sequence number must equal the exact number of PUTs the
// generator issued to it.
//
// Scenarios are declarative (see Scenario and scenarios.go): protocol ×
// hosts × keyspace × skew × rate × mix × fault preset, run to a
// deterministic fingerprint that golden tests pin.
package serve

import (
	"fmt"

	millipage "millipage"
	"millipage/internal/faultnet"
	"millipage/internal/mcheck"
	"millipage/internal/registry"
	"millipage/internal/sim"
	"millipage/internal/stats"
)

// Scenario declares one serving run. The zero value is not runnable;
// start from a named entry (Scenarios, Lookup) or fill every field.
type Scenario struct {
	Name     string
	Protocol string // millipage.Config.Protocol ("" = "millipage")

	Hosts   int
	Keys    int // keyspace size
	Buckets int // minipage-resident buckets keys hash into
	Clients int // simulated clients, multiplexed over the cluster's threads

	Rate     float64 // aggregate open-loop arrival rate, ops per virtual second
	Ops      int     // total operations across the cluster
	ReadFrac float64 // fraction of operations that are GETs, in [0, 1]
	ZipfS    float64 // key-popularity skew exponent; 0 = uniform

	Seed   int64
	Faults string // fault preset name (mcheck.FaultNames), "" or "clean" = clean wire

	// PerfectTimers removes the NT timer pathology from the service
	// threads. Serving scenarios default to true (scenarios.go) so
	// latency percentiles reflect protocol behaviour; set false for the
	// paper's Section 3.5.1 sweeper gaps, which a request meets only when
	// it reaches a host in the middle of an operation: a thread waiting
	// for its next arrival polls (Idle).
	PerfectTimers bool

	Views int // minipages per page bound; default 16
}

// withDefaults fills the optional fields.
func (sc Scenario) withDefaults() Scenario {
	if sc.Protocol == "" {
		sc.Protocol = "millipage"
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Views == 0 {
		sc.Views = 16
	}
	if sc.Faults == "clean" {
		sc.Faults = ""
	}
	return sc
}

// validate rejects unrunnable scenarios with a field-specific error.
func (sc Scenario) validate() error {
	switch {
	case sc.Hosts < 1:
		return fmt.Errorf("serve: scenario %q needs Hosts >= 1, got %d", sc.Name, sc.Hosts)
	case sc.Keys < 1:
		return fmt.Errorf("serve: scenario %q needs Keys >= 1, got %d", sc.Name, sc.Keys)
	case sc.Buckets < 1 || sc.Buckets > sc.Keys:
		return fmt.Errorf("serve: scenario %q needs Buckets in [1, Keys=%d], got %d", sc.Name, sc.Keys, sc.Buckets)
	case sc.Clients < sc.Hosts:
		return fmt.Errorf("serve: scenario %q needs Clients >= Hosts (every thread multiplexes at least one client), got %d < %d", sc.Name, sc.Clients, sc.Hosts)
	case sc.Rate <= 0:
		return fmt.Errorf("serve: scenario %q needs Rate > 0 ops/s, got %g", sc.Name, sc.Rate)
	case sc.Ops < 1:
		return fmt.Errorf("serve: scenario %q needs Ops >= 1, got %d", sc.Name, sc.Ops)
	case sc.ReadFrac < 0 || sc.ReadFrac > 1:
		return fmt.Errorf("serve: scenario %q needs ReadFrac in [0, 1], got %g", sc.Name, sc.ReadFrac)
	case sc.ZipfS < 0:
		return fmt.Errorf("serve: scenario %q needs ZipfS >= 0, got %g", sc.Name, sc.ZipfS)
	}
	return nil
}

// Result is one scenario run's outcome.
type Result struct {
	Scenario Scenario
	Report   *millipage.Report // the underlying DSM run report (fault-service breakdown)

	Elapsed    sim.Duration // the timed serving section (excludes setup)
	Ops        uint64
	Gets, Puts uint64
	GetLat     stats.Histogram // per-op-type latency: arrival -> completion (queueing included)
	PutLat     stats.Histogram
	Throughput float64 // ops per virtual second over the timed section

	// Fingerprint folds every response (thread, client, key, observed
	// slot word, arrival and completion times) into one FNV-64 digest, a
	// pure function of the scenario — identical across repeat runs, bench
	// sweep widths and engine worker counts.
	Fingerprint uint64

	Violations     uint64 // oracle violations observed in-line (0 on a correct run)
	FirstViolation string

	Engine sim.Counters // what the run cost the event engine (whole run, setup included)
}

// String renders the run summary the CLI prints.
func (r *Result) String() string {
	s := fmt.Sprintf("scenario=%s protocol=%s hosts=%d keys=%d buckets=%d clients=%d\n",
		r.Scenario.Name, r.Report.Protocol, r.Scenario.Hosts, r.Scenario.Keys, r.Scenario.Buckets, r.Scenario.Clients)
	s += fmt.Sprintf("ops=%d (get=%d put=%d) rate=%.0f/s elapsed=%v throughput=%.0f ops/s\n",
		r.Ops, r.Gets, r.Puts, r.Scenario.Rate, r.Elapsed, r.Throughput)
	s += fmt.Sprintf("get latency: %s\n", r.GetLat.String())
	s += fmt.Sprintf("put latency: %s\n", r.PutLat.String())
	s += fmt.Sprintf("faults: read=%d write=%d invalidations=%d competing=%d locks=%d\n",
		r.Report.ReadFaults, r.Report.WriteFaults, r.Report.Invalidations,
		r.Report.CompetingRequests, r.Report.LockAcquisitions)
	if r.Report.Retransmits+r.Report.DupsDropped+r.Report.FramesDropped > 0 {
		s += fmt.Sprintf("reliability: retransmits=%d dups=%d ooo=%d dropped=%d\n",
			r.Report.Retransmits, r.Report.DupsDropped, r.Report.OutOfOrder, r.Report.FramesDropped)
	}
	s += fmt.Sprintf("fingerprint=%016x oracle=OK", r.Fingerprint)
	return s
}

// fnvOffset/fnvPrime are the FNV-64a constants.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// fpMix folds v into a running FNV-64a digest byte by byte.
func fpMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// threadState is one thread's private slice of the run: generator
// tallies, latency histograms, the response fingerprint, oracle state.
// Threads touch only their own entry; the harness merges them in thread
// order after the run, so every derived number is deterministic.
type threadState struct {
	gets, puts uint64
	getLat     stats.Histogram
	putLat     stats.Histogram
	fp         uint64

	seen      map[uint64]uint32 // client*Keys+key -> highest sequence number served
	putCounts map[uint32]uint32 // key -> PUTs this thread issued (the oracle map's shards)

	violations uint64
	firstViol  string

	elapsed sim.Duration // thread 0 only: the timed section
}

// violate records an oracle violation (keeping the first description).
func (st *threadState) violate(format string, args ...any) {
	st.violations++
	if st.firstViol == "" {
		st.firstViol = fmt.Sprintf(format, args...)
	}
}

// observe validates one served slot word against the oracle: the
// payload half must match the sequence half, and this client must never
// see the key's sequence number go backwards.
func (st *threadState) observe(client uint64, key uint32, word uint64, keys int) {
	seq, pay := decodeSlot(word)
	if pay != payload(key, seq) {
		st.violate("key %d: slot (seq=%d, payload=%#x) does not decode to payload(key, seq)=%#x — torn or cross-key write", key, seq, pay, payload(key, seq))
	}
	ck := client*uint64(keys) + uint64(key)
	if last := st.seen[ck]; seq < last {
		st.violate("client %d key %d: served seq %d after having seen seq %d — stale read", client, key, seq, last)
	} else if seq > last {
		st.seen[ck] = seq
	}
}

// Run executes the scenario and validates every oracle; a non-nil error
// means either the run itself failed or the service returned a wrong
// answer (in-line violation or final oracle-map mismatch).
func Run(sc Scenario) (*Result, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}

	var plan *faultnet.Plan
	if sc.Faults != "" {
		var err error
		plan, err = mcheck.FaultPlan(sc.Faults, sc.Hosts, sc.Seed)
		if err != nil {
			return nil, err
		}
	}

	// Key -> bucket -> slot layout, computed once up front and shared
	// read-only with every thread. Buckets get their keys in key order;
	// the hash scatters, the permutation in the generator decides which
	// of them are hot.
	bucketOf := make([]uint32, sc.Keys)
	slotOf := make([]uint32, sc.Keys)
	bucketLen := make([]uint32, sc.Buckets)
	for k := 0; k < sc.Keys; k++ {
		b := uint32(mix64(uint64(k)^0xb0c4e7) % uint64(sc.Buckets))
		bucketOf[k] = b
		slotOf[k] = bucketLen[b]
		bucketLen[b]++
	}
	perm := keyPermutation(sc.Keys, sc.Seed)
	z := newZipf(sc.Keys, sc.ZipfS)

	shared := 8*sc.Keys + 64*sc.Buckets + (256 << 10)
	cl, err := millipage.NewCluster(millipage.Config{
		Protocol:      sc.Protocol,
		Hosts:         sc.Hosts,
		SharedMemory:  shared,
		Views:         sc.Views,
		Seed:          sc.Seed,
		PerfectTimers: sc.PerfectTimers,
		Faults:        plan,
	})
	if err != nil {
		return nil, err
	}

	threads := sc.Hosts
	// A DRF-SC protocol's correctness contract is data-race freedom, so
	// its GETs synchronize through the bucket lock; the SC protocols serve
	// GETs lock-free (the coherence protocol itself orders them).
	proto, err := registry.Lookup(cl.Protocol())
	if err != nil {
		return nil, err
	}
	lockedReads := !proto.SC

	keyAddr := make([]millipage.Addr, sc.Keys)
	sts := make([]threadState, threads)
	for i := range sts {
		sts[i].seen = make(map[uint64]uint32)
		sts[i].putCounts = make(map[uint32]uint32)
	}
	var oracleErr error

	report, err := cl.Run(func(w *millipage.Worker) {
		t := w.ThreadID()
		if t == 0 {
			bucketAddr := make([]millipage.Addr, sc.Buckets)
			for b := range bucketAddr {
				sz := 8 * int(bucketLen[b])
				if sz == 0 {
					sz = 8
				}
				bucketAddr[b] = w.Malloc(sz)
			}
			for k := range keyAddr {
				keyAddr[k] = bucketAddr[bucketOf[k]] + millipage.Addr(8*slotOf[k])
			}
		}
		w.Barrier()
		w.ResetStats()
		start := w.Now()

		st := &sts[t]
		st.fp = fnvOffset
		g := newThreadGen(sc, t, threads, z, perm)
		ops := opsFor(sc.Ops, threads, t)
		next := start
		for i := 0; i < ops; i++ {
			next += g.gap()
			if now := w.Now(); now < next {
				// Open loop: idle until the arrival, polling, so the host
				// serves DSM requests meanwhile as an idle one does. When
				// the thread is behind, the op has been queueing — its
				// latency below includes the backlog delay, as a real
				// ingress queue would.
				w.Idle(next - now)
			}
			key, client, isGet := g.op()
			addr := keyAddr[key]
			lockID := int(bucketOf[key])
			var word uint64
			if isGet {
				if lockedReads {
					w.Lock(lockID)
					word = w.ReadU64(addr)
					w.Unlock(lockID)
				} else {
					word = w.ReadU64(addr)
				}
				st.observe(client, key, word, sc.Keys)
				st.gets++
			} else {
				w.Lock(lockID)
				cur := w.ReadU64(addr)
				st.observe(client, key, cur, sc.Keys)
				seq, _ := decodeSlot(cur)
				seq++
				word = encodeSlot(seq, payload(key, seq))
				w.WriteU64(addr, word)
				w.Unlock(lockID)
				st.putCounts[key]++
				// The writer is also a client of its own write.
				st.observe(client, key, word, sc.Keys)
				st.puts++
			}
			done := w.Now()
			lat := done - next
			if isGet {
				st.getLat.Add(lat)
			} else {
				st.putLat.Add(lat)
			}
			kind := uint64(0)
			if !isGet {
				kind = 1
			}
			fp := st.fp
			fp = fpMix(fp, kind)
			fp = fpMix(fp, uint64(key))
			fp = fpMix(fp, client)
			fp = fpMix(fp, word)
			fp = fpMix(fp, uint64(next))
			fp = fpMix(fp, uint64(done))
			st.fp = fp
		}
		w.Barrier()
		if t == 0 {
			st.elapsed = w.Now() - start
			// Final oracle map: every key's sequence number must equal the
			// exact number of PUTs the generator issued to it, cluster-wide
			// (exactly-once semantics survive any fault preset), and the
			// payload must still decode.
			for k := 0; k < sc.Keys; k++ {
				var want uint32
				for i := range sts {
					want += sts[i].putCounts[uint32(k)]
				}
				seq, pay := decodeSlot(w.ReadU64(keyAddr[k]))
				if seq != want || pay != payload(uint32(k), seq) {
					oracleErr = fmt.Errorf("serve: final oracle: key %d ended at (seq=%d, payload=%#x), want seq=%d payload=%#x",
						k, seq, pay, want, payload(uint32(k), want))
					return
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if oracleErr != nil {
		return nil, oracleErr
	}

	res := &Result{Scenario: sc, Report: report, Elapsed: sts[0].elapsed, Engine: cl.EngineCounters()}
	fp := uint64(fnvOffset)
	for i := range sts {
		st := &sts[i]
		res.Gets += st.gets
		res.Puts += st.puts
		res.GetLat.Merge(&st.getLat)
		res.PutLat.Merge(&st.putLat)
		res.Violations += st.violations
		if res.FirstViolation == "" {
			res.FirstViolation = st.firstViol
		}
		fp = fpMix(fp, uint64(i))
		fp = fpMix(fp, st.fp)
		fp = fpMix(fp, st.gets+st.puts)
	}
	res.Ops = res.Gets + res.Puts
	fp = fpMix(fp, uint64(res.Elapsed))
	res.Fingerprint = fp
	if sec := res.Elapsed.Seconds(); sec > 0 {
		res.Throughput = float64(res.Ops) / sec
	}
	if res.Violations > 0 {
		return res, fmt.Errorf("serve: %d oracle violation(s); first: %s", res.Violations, res.FirstViolation)
	}
	return res, nil
}
