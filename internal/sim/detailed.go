package sim

import (
	"fmt"

	"rmcc/internal/mem/cache"
	"rmcc/internal/mem/dram"
	"rmcc/internal/mem/vm"
	"rmcc/internal/obs"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sim/event"
	"rmcc/internal/workload"
)

// DetailedConfig parameterizes a timing run (Table I).
type DetailedConfig struct {
	L1, L2, LLC cache.Config
	// End-to-end hit latencies (Table I latencies are additive: L1 2 ns,
	// L2 2+4=6 ns, L3 2+4+17=23 ns).
	L1Lat, L2Lat, LLCLat event.Time

	CPUGHz float64 // 3.2
	Width  int     // 4-wide
	ROB    int     // 192 entries
	MSHRs  int     // outstanding misses per core

	AESLat    event.Time // 15 ns (AES-128) or 22 ns (AES-256)
	DecodeLat event.Time // 3 ns Morphable/split-counter decode
	ClmulLat  event.Time // 1 ns table lookup + carry-less multiply
	DotLat    event.Time // 1 ns GF dot product

	DRAM   dram.Config
	Engine engine.Config

	// PrefetchStreams/PrefetchDegree configure the LLC-level stream
	// prefetcher (Table I's stride prefetchers); 0 streams disables it.
	PrefetchStreams int
	PrefetchDegree  int

	// SpeculativeVerification models PoisonIvy-style safe speculation
	// (paper §VII Related Work): the CPU consumes data as soon as it is
	// *decrypted*, with integrity verification retired off the critical
	// path (squash-on-failure never fires in honest runs). Decryption
	// still needs the counter value, so counter fetches and — without
	// RMCC — the counter-to-pad AES remain exposed; this is exactly the
	// paper's argument for why speculation alone is not enough.
	SpeculativeVerification bool

	PageBytes uint64
	Seed      uint64

	// Tracer, when set, is attached to the MC. It defaults to nil.
	Tracer *obs.Tracer

	// FastForwardAccesses stream through the functional path only — the
	// Gem5 "atomic mode" analog of the paper's 25-billion-instruction
	// warmup: caches, counters and memoization tables evolve, but no
	// timing is simulated. Then WarmupAccesses run with timing before the
	// stats reset, and MeasureAccesses define the observation window
	// (CPU-level accesses).
	FastForwardAccesses uint64
	WarmupAccesses      uint64
	MeasureAccesses     uint64
}

// DefaultDetailedConfig returns the paper's Table-I system.
func DefaultDetailedConfig(eng engine.Config) DetailedConfig {
	return DetailedConfig{
		L1:                  cache.Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64},
		L2:                  cache.Config{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64},
		LLC:                 cache.Config{SizeBytes: 8 << 20, Ways: 16, LineBytes: 64},
		L1Lat:               2 * event.Nanosecond,
		L2Lat:               6 * event.Nanosecond,
		LLCLat:              23 * event.Nanosecond,
		CPUGHz:              3.2,
		Width:               4,
		ROB:                 192,
		MSHRs:               16,
		AESLat:              15 * event.Nanosecond,
		DecodeLat:           3 * event.Nanosecond,
		ClmulLat:            1 * event.Nanosecond,
		DotLat:              1 * event.Nanosecond,
		DRAM:                dram.DefaultConfig(),
		Engine:              eng,
		PrefetchStreams:     16,
		PrefetchDegree:      2,
		PageBytes:           2 << 20,
		Seed:                1,
		FastForwardAccesses: 3_000_000,
		WarmupAccesses:      500_000,
		MeasureAccesses:     2_000_000,
	}
}

// DetailedResult aggregates a timing run's observation window.
type DetailedResult struct {
	Workload     string
	Instructions uint64
	WindowTime   event.Time // simulated ps
	IPC          float64
	Accesses     uint64 // CPU accesses in the window
	LLCMisses    uint64 // read transactions at the MC

	// AvgMissLatencyNS is the mean MC-accept-to-data-verified latency of
	// LLC read misses (Figure 14).
	AvgMissLatencyNS float64

	DRAM   dram.Stats
	Engine engine.Stats
}

// txn is one in-flight LLC read miss at the MC: the data fetch plus the
// counter chain, composed into a completion time when all parts arrive.
type txn struct {
	t0          event.Time
	nonSecure   bool
	spec        bool // speculative verification (§VII comparison)
	ctrCacheHit bool
	schemeSGX   bool
	chain       []chainPart
	tData       event.Time
	pending     int
	done        bool
	complete    event.Time
}

type chainPart struct {
	memoHit bool
	tArr    event.Time
}

// finalize composes the secure-read completion time (paper Figure 5): the
// data pad is ready AES-or-lookup after the (verified) counter value is
// known; completion waits for both data and pad, plus the MAC dot product.
func (tx *txn) finalize(cfg *DetailedConfig) {
	decode := cfg.DecodeLat
	if tx.schemeSGX {
		decode = 0 // monolithic counters need no split decode
	}
	if tx.nonSecure {
		tx.complete = tx.tData
		tx.done = true
		return
	}
	var padForData event.Time
	switch {
	case tx.ctrCacheHit:
		// Counter known at t0: AES overlaps the data fetch.
		padForData = tx.t0 + decode + cfg.AESLat
	case tx.spec:
		// Speculative verification: decryption proceeds as soon as the L0
		// counter value arrives; the verification chain (which needs the
		// upper-level counters) retires off the critical path. The
		// counter-to-pad computation is still exposed — unless memoized.
		l0 := tx.chain[0]
		use := cfg.AESLat
		if l0.memoHit {
			use = cfg.ClmulLat
		}
		padForData = l0.tArr + decode + use
	default:
		// The parent of the highest fetched level is cached (or the
		// on-chip root): its AES for verifying that level starts at t0.
		padAbove := tx.t0 + decode + cfg.AESLat
		for i := len(tx.chain) - 1; i >= 0; i-- {
			f := tx.chain[i]
			verified := f.tArr + decode
			if padAbove > verified {
				verified = padAbove
			}
			verified += cfg.DotLat
			use := cfg.AESLat
			if f.memoHit {
				use = cfg.ClmulLat
			}
			padAbove = verified + use
		}
		padForData = padAbove
	}
	end := tx.tData
	if padForData > end {
		end = padForData
	}
	if !tx.spec {
		end += cfg.DotLat // the MAC check on the critical path
	}
	tx.complete = end
	tx.done = true
}

// overflowJob trickles a relevel's transfers into DRAM, at most
// trickleSlots in flight, with at most two jobs active at once (§V).
type overflowJob struct {
	remaining []engine.Traffic
	inflight  int
}

const (
	maxOverflowJobs = 2
	trickleSlots    = 8
)

// detailedSim owns the timing state around the core.
type detailedSim struct {
	cfg    DetailedConfig
	eng    *event.Engine
	ch     *dram.Channel
	mc     *engine.MC
	hier   *hierarchy
	mapper *vm.Mapper
	jobs   []*overflowJob

	pf *prefetcher

	cycPS      event.Time // ps per cycle
	missLatSum event.Time
	missCount  uint64
}

// translate maps vaddr to its physical address. Physical memory is sized
// from the workload's own footprint, so running out of it is a bug.
func (s *detailedSim) translate(vaddr uint64) uint64 {
	paddr, err := s.mapper.Translate(vaddr)
	if err != nil {
		panic(err)
	}
	return paddr
}

// prefetch reacts to a demand miss: armed streams pull the next lines into
// the LLC through the full secure path (prefetches fetch and decrypt like
// demand reads — they warm the counter cache too — and consume DRAM
// bandwidth, but never block the CPU).
func (s *detailedSim) prefetch(missedPaddr uint64) {
	if s.pf == nil {
		return
	}
	for _, line := range s.pf.observe(missedPaddr >> 6) {
		paddr := line << 6
		if paddr >= s.mapper.PhysBytes() {
			continue
		}
		if s.hier.llc.Probe(paddr) {
			continue
		}
		// The fill's dirty victim goes to memory first; like the rest of
		// the prefetch, its overflow stall never holds up the core.
		if r := s.hier.llc.Access(paddr, false); r.Evicted && r.Writeback {
			s.writeBack(r.VictimAddr)
		}
		out := s.mc.Read(paddr)
		s.enqueue(&dram.Request{Addr: paddr, Kind: dram.KindData})
		for _, f := range out.Chain {
			s.enqueue(&dram.Request{Addr: f.Addr, Kind: dram.KindCounter})
		}
		s.issueTraffic(out.Extra)
		if len(out.OverflowTraffic) > 0 {
			s.startOverflowJob(out.OverflowTraffic)
		}
	}
}

// writeBack sends one dirty LLC victim to the MC: the engine write and its
// epoch tick, the write's side traffic (the data block itself among it),
// and any overflow it forces as an overflow job. It returns the time the MC
// accepts requests again when that job had to wait for a slot, else 0.
func (s *detailedSim) writeBack(victim uint64) (stallUntil event.Time) {
	out := s.mc.Write(victim)
	s.mc.OnEpochAccess()
	s.issueTraffic(out.Extra)
	if len(out.OverflowTraffic) > 0 {
		stallUntil = s.startOverflowJob(out.OverflowTraffic)
	}
	return stallUntil
}

// enqueue pushes a DRAM request, advancing simulation under backpressure.
func (s *detailedSim) enqueue(r *dram.Request) {
	for !s.ch.Enqueue(r) {
		if !s.eng.Step() {
			panic("sim: DRAM queue full with no pending events")
		}
	}
}

// issueTraffic turns engine-side traffic into DRAM requests at the current
// simulated time (completion untracked: counter writebacks and metadata
// fetches contend for bandwidth but do not block the CPU directly).
func (s *detailedSim) issueTraffic(ts []engine.Traffic) {
	for _, t := range ts {
		s.enqueue(&dram.Request{Addr: t.Addr, Write: t.Write, Kind: t.Kind})
	}
}

// startOverflowJob registers a relevel's traffic; when two jobs are already
// active, the MC rejects further LLC requests, which we model by running
// simulation until a slot frees (returning the release time).
func (s *detailedSim) startOverflowJob(traffic []engine.Traffic) event.Time {
	stallUntil := s.eng.Now()
	for len(s.jobs) >= maxOverflowJobs {
		if !s.eng.Step() {
			panic("sim: overflow jobs stuck with no pending events")
		}
		stallUntil = s.eng.Now()
	}
	job := &overflowJob{remaining: traffic}
	s.jobs = append(s.jobs, job)
	s.pumpJob(job)
	return stallUntil
}

// pumpJob keeps up to trickleSlots of the job's transfers in flight.
func (s *detailedSim) pumpJob(job *overflowJob) {
	for job.inflight < trickleSlots && len(job.remaining) > 0 {
		t := job.remaining[0]
		job.remaining = job.remaining[1:]
		job.inflight++
		req := &dram.Request{Addr: t.Addr, Write: t.Write, Kind: t.Kind}
		req.OnComplete = func(event.Time) {
			job.inflight--
			if len(job.remaining) > 0 {
				s.pumpJob(job)
				return
			}
			if job.inflight == 0 {
				for i, j := range s.jobs {
					if j == job {
						s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
						break
					}
				}
			}
		}
		s.enqueue(req)
	}
}

// startRead converts an engine Outcome into an in-flight transaction.
func (s *detailedSim) startRead(paddr uint64, out engine.Outcome) *txn {
	now := s.eng.Now()
	tx := &txn{
		t0:          now,
		nonSecure:   s.cfg.Engine.Mode == engine.NonSecure,
		spec:        s.cfg.SpeculativeVerification,
		ctrCacheHit: out.CtrCacheHit,
		schemeSGX:   s.cfg.Engine.Scheme == counter.SGX,
	}
	onDone := func() {
		if tx.pending == 0 && !tx.done {
			tx.finalize(&s.cfg)
			s.missLatSum += tx.complete - tx.t0
			s.missCount++
		}
	}
	// Hold a setup token: enqueue backpressure can advance simulation and
	// complete early parts before later parts are registered.
	tx.pending++
	// Data fetch.
	tx.pending++
	dataReq := &dram.Request{Addr: paddr, Kind: dram.KindData}
	dataReq.OnComplete = func(at event.Time) {
		tx.tData = at
		tx.pending--
		onDone()
	}
	s.enqueue(dataReq)
	// Counter-chain fetches (addresses all derivable at t0: issued in
	// parallel, verified top-down in finalize).
	tx.chain = make([]chainPart, len(out.Chain))
	for i, f := range out.Chain {
		i := i
		tx.pending++
		tx.chain[i].memoHit = f.MemoHit
		req := &dram.Request{Addr: f.Addr, Kind: dram.KindCounter}
		req.OnComplete = func(at event.Time) {
			tx.chain[i].tArr = at
			tx.pending--
			onDone()
		}
		s.enqueue(req)
	}
	// Side traffic (evicted counter writebacks, read-update rewrites).
	s.issueTraffic(out.Extra)
	if len(out.OverflowTraffic) > 0 {
		s.startOverflowJob(out.OverflowTraffic)
	}
	tx.pending-- // release the setup token
	onDone()
	return tx
}

// waitTxn advances simulation until the transaction resolves.
func (s *detailedSim) waitTxn(tx *txn) event.Time {
	for !tx.done {
		if !s.eng.Step() {
			panic("sim: transaction stuck with no pending events")
		}
	}
	return tx.complete
}

// core models one OoO hardware context: a 4-wide frontend bounded by a
// 192-entry ROB and per-core MSHRs, with in-order retirement.
type core struct {
	sim *detailedSim
	st  *AccessStream

	tF         event.Time // frontend dispatch clock
	pos        uint64     // instructions dispatched
	lastRetire event.Time
	rob        []robEntry // outstanding loads, FIFO by pos
	misses     []*txn     // outstanding LLC misses (MSHR occupancy)

	instRetired uint64
}

type robEntry struct {
	pos      uint64
	tx       *txn       // nil when completion is known
	complete event.Time // valid when tx == nil
}

// step processes one CPU access; it returns false when the stream ended.
func (c *core) step() bool {
	a, ok := c.st.Next()
	if !ok {
		return false
	}
	s := c.sim
	// Frontend: dispatch the gap instructions plus this access.
	c.tF += event.Time(float64(a.Gap)/float64(s.cfg.Width)) * s.cycPS
	c.pos += uint64(a.Gap) + 1
	c.instRetired += uint64(a.Gap) + 1

	// ROB bound: dispatch stalls until the load ROB-distance behind has
	// retired (in order).
	for len(c.rob) > 0 && c.rob[0].pos+uint64(s.cfg.ROB) <= c.pos {
		e := c.rob[0]
		c.rob = c.rob[1:]
		complete := e.complete
		if e.tx != nil {
			complete = s.waitTxn(e.tx)
			c.dropMiss(e.tx)
		}
		if complete > c.lastRetire {
			c.lastRetire = complete
		}
		if c.lastRetire > c.tF {
			c.tF = c.lastRetire
		}
	}

	// Memory access.
	paddr := s.translate(a.Addr)
	if s.eng.Now() < c.tF {
		s.eng.RunUntil(c.tF)
	} else if c.tF < s.eng.Now() {
		// A stall advanced simulated time past the frontend; the access
		// cannot issue in the past.
		c.tF = s.eng.Now()
	}
	lvl, victims := s.hier.access(paddr, a.Write)
	for _, v := range victims {
		if t := s.writeBack(v); t > c.tF {
			c.tF = t
		}
	}

	var complete event.Time
	var tx *txn
	switch lvl {
	case hitL1:
		complete = c.tF + s.cfg.L1Lat
	case hitL2:
		complete = c.tF + s.cfg.L2Lat
	case hitLLC:
		complete = c.tF + s.cfg.LLCLat
		// Feed LLC-level accesses to the prefetcher too, so an armed
		// stream keeps running ahead through its own prefetched hits.
		if s.eng.Now() < c.tF {
			s.eng.RunUntil(c.tF)
		}
		s.prefetch(paddr)
	default:
		// MSHR bound: wait for the oldest outstanding miss if full.
		for len(c.misses) >= s.cfg.MSHRs {
			oldest := c.misses[0]
			s.waitTxn(oldest)
			c.dropMiss(oldest)
			if oldest.complete > c.tF {
				c.tF = oldest.complete
			}
		}
		if s.eng.Now() < c.tF {
			s.eng.RunUntil(c.tF)
		}
		out := s.mc.Read(paddr)
		s.mc.OnEpochAccess()
		tx = s.startRead(paddr, out)
		c.misses = append(c.misses, tx)
		s.prefetch(paddr)
	}

	if a.Write {
		// Stores retire from the write buffer without blocking.
		return true
	}
	c.rob = append(c.rob, robEntry{pos: c.pos, tx: tx, complete: complete})
	return true
}

func (c *core) dropMiss(tx *txn) {
	for i, m := range c.misses {
		if m == tx {
			c.misses = append(c.misses[:i], c.misses[i+1:]...)
			return
		}
	}
}

// drain retires everything outstanding, returning the core's final time.
func (c *core) drain() event.Time {
	for _, e := range c.rob {
		complete := e.complete
		if e.tx != nil {
			complete = c.sim.waitTxn(e.tx)
		}
		if complete > c.lastRetire {
			c.lastRetire = complete
		}
	}
	c.rob = nil
	if c.lastRetire > c.tF {
		c.tF = c.lastRetire
	}
	return c.tF
}

// newDetailedSim builds the timing state for a workload footprint.
func newDetailedSim(footprint uint64, cfg DetailedConfig) *detailedSim {
	s := &detailedSim{
		cfg:   cfg,
		eng:   event.New(),
		cycPS: event.Time(1000.0 / cfg.CPUGHz),
	}
	s.ch = dram.New(s.eng, cfg.DRAM)
	physBytes := physFor(footprint, cfg.PageBytes)
	s.mapper = vm.New(physBytes, cfg.PageBytes, cfg.Seed^0xabcd)
	engCfg := cfg.Engine
	engCfg.MemBytes = physBytes
	s.mc = engine.New(engCfg)
	s.hier = newHierarchy(cfg.L1, cfg.L2, cfg.LLC)
	s.pf = newPrefetcher(cfg.PrefetchStreams, cfg.PrefetchDegree)
	if cfg.Tracer != nil {
		s.mc.SetTracer(cfg.Tracer)
	}
	return s
}

// RunDetailed executes a timing simulation of w on Table I's one core.
func RunDetailed(w workload.Workload, cfg DetailedConfig) DetailedResult {
	s := newDetailedSim(w.FootprintBytes(), cfg)

	c := &core{sim: s, st: NewAccessStream(func(sink workload.Sink) { w.Run(cfg.Seed, sink) })}
	defer c.st.Close()

	// Atomic-mode fast-forward: evolve caches, counters and memoization
	// tables functionally so the timed window observes converged state
	// (the paper warms up for 25 billion instructions before measuring).
	for ff := uint64(0); ff < cfg.FastForwardAccesses; ff++ {
		a, ok := c.st.Next()
		if !ok {
			break
		}
		paddr := s.translate(a.Addr)
		lvl, victims := s.hier.access(paddr, a.Write)
		for _, v := range victims {
			s.mc.Write(v)
			s.mc.OnEpochAccess()
		}
		if lvl == missAll {
			s.mc.Read(paddr)
			s.mc.OnEpochAccess()
		}
	}

	var processed uint64
	runPhase := func(target uint64) {
		for processed < target && c.step() {
			processed++
		}
	}

	// Warmup, then reset all stats and open the observation window.
	runPhase(cfg.WarmupAccesses)
	s.mc.ResetStats()
	s.ch.ResetStats()
	s.missLatSum, s.missCount = 0, 0
	instStart := c.instRetired
	tStart := max(s.eng.Now(), c.tF)

	runPhase(cfg.WarmupAccesses + cfg.MeasureAccesses)

	// Close the window: drain outstanding work.
	tEnd := s.eng.Now()
	if t := c.drain(); t > tEnd {
		tEnd = t
	}

	window := tEnd - tStart
	if window <= 0 {
		window = 1
	}
	res := DetailedResult{
		Workload:     w.Name(),
		Instructions: c.instRetired - instStart,
		WindowTime:   window,
		Accesses:     processed - cfg.WarmupAccesses,
		LLCMisses:    s.missCount,
		DRAM:         s.ch.Stats(),
		Engine:       s.mc.Stats(),
	}
	cycles := float64(window) / float64(s.cycPS)
	res.IPC = float64(res.Instructions) / cycles
	if s.missCount > 0 {
		res.AvgMissLatencyNS = float64(s.missLatSum) / float64(s.missCount) / float64(event.Nanosecond)
	}
	return res
}

// String renders a one-line summary.
func (r DetailedResult) String() string {
	return fmt.Sprintf("%s: IPC=%.3f missLat=%.1fns misses=%d window=%.2fms",
		r.Workload, r.IPC, r.AvgMissLatencyNS, r.LLCMisses,
		float64(r.WindowTime)/float64(event.Millisecond))
}
