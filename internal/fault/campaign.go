package fault

import (
	"fmt"

	"rmcc/internal/obs"
	"rmcc/internal/secmem/checker"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sim"
	"rmcc/internal/workload"
)

// Result records one injected fault's outcome.
type Result struct {
	Fault Fault
	// Armed reports that the injection actually corrupted state (e.g. a
	// MemoPoison found a live table entry). Unarmed faults are excluded
	// from the detection denominator.
	Armed bool
	// Detected reports that the engine (or checker) flagged the fault.
	Detected bool
	// Recovered reports that after the configured recovery response a
	// probe of the damaged state verified cleanly again.
	Recovered bool
	// Rekeyed reports that handling this fault ran the whole-memory
	// re-key.
	Rekeyed bool
	// Block is the targeted data block (or L1 child for tree faults), -1
	// when the fault has no block target.
	Block int
	// Note carries human-readable context.
	Note string
}

// String renders the outcome.
func (r Result) String() string {
	state := "missed"
	switch {
	case !r.Armed:
		state = "unarmed"
	case r.Detected && r.Recovered:
		state = "detected+recovered"
	case r.Detected:
		state = "detected"
	case r.Fault.Kind.Benign() && !r.Detected:
		state = "clean (benign)"
	}
	if r.Rekeyed {
		state += "+rekey"
	}
	return fmt.Sprintf("%v block=%d: %s%s", r.Fault, r.Block, state, noteSuffix(r.Note))
}

func noteSuffix(n string) string {
	if n == "" {
		return ""
	}
	return " — " + n
}

// CampaignResult aggregates a campaign run.
type CampaignResult struct {
	Faults []Result

	// Injected counts scheduled faults; Armed those that corrupted state.
	Injected, Armed int
	// TamperArmed/TamperDetected cover the detection-required kinds: the
	// campaign's headline is TamperDetected == TamperArmed.
	TamperArmed, TamperDetected int
	// Recovered counts armed detection-required faults whose damage was
	// repaired (per the recovery policy) by the end of their drill.
	Recovered int
	// BenignArmed/BenignFlagged cover the false-positive controls: any
	// BenignFlagged is an engine defect.
	BenignArmed, BenignFlagged int

	// Checker is the invariant checker's final report over the whole run.
	Checker checker.Report

	// PostFaultMemoLookups/Hits are the L0 memoization counters after the
	// last injection, for the re-convergence headline.
	PostFaultMemoLookups, PostFaultMemoHits uint64

	// Lifetime is the underlying workload run's result.
	Lifetime sim.LifetimeResult
}

// DetectionRate returns detected/armed over the detection-required kinds.
func (r CampaignResult) DetectionRate() float64 {
	if r.TamperArmed == 0 {
		return 0
	}
	return float64(r.TamperDetected) / float64(r.TamperArmed)
}

// PostFaultMemoHitRate returns the L0 memoization hit rate over the
// accesses after the last injection — the paper's re-convergence claim:
// after a reboot wipes the tables, memoization rebuilds itself.
func (r CampaignResult) PostFaultMemoHitRate() float64 {
	if r.PostFaultMemoLookups == 0 {
		return 0
	}
	return float64(r.PostFaultMemoHits) / float64(r.PostFaultMemoLookups)
}

// Summary renders the headline numbers.
func (r CampaignResult) Summary() string {
	return fmt.Sprintf(
		"faults=%d armed=%d detected=%d/%d recovered=%d benign-flagged=%d/%d post-fault-memo=%.1f%%",
		r.Injected, r.Armed, r.TamperDetected, r.TamperArmed, r.Recovered,
		r.BenignFlagged, r.BenignArmed, 100*r.PostFaultMemoHitRate())
}

// Campaign replays a workload through the lifetime driver while injecting
// a Schedule of faults into the memory controller.
type Campaign struct {
	Workload workload.Workload
	Lifetime sim.LifetimeConfig
	Schedule Schedule
}

// Run executes the campaign. The engine configuration is validated first;
// TrackContents is forced on (the campaign needs the functional image to
// tamper with and verify against).
func (c *Campaign) Run() (CampaignResult, error) {
	cfg := c.Lifetime
	cfg.Engine.TrackContents = true
	lt, err := sim.NewLifetimeChecked(c.Workload.Name(), c.Workload.FootprintBytes(), cfg)
	if err != nil {
		return CampaignResult{}, err
	}

	sched := append(Schedule(nil), c.Schedule...)
	sched.sort()
	st := &campaignState{sched: sched, mc: lt.MC(), chk: checker.New(lt.MC(), 1)}

	// Step the stream, injecting every fault that falls due after each
	// access.
	c.Workload.Run(cfg.Seed, func(a workload.Access) bool {
		if lt.Accesses() >= cfg.MaxAccesses {
			return false
		}
		if err := lt.Step(a); err != nil {
			// Memory is sized from the code-defined workload's footprint.
			panic(err)
		}
		st.injectDue(lt.Accesses())
		return true
	})
	res := CampaignResult{Lifetime: lt.Result()}

	// Inject anything scheduled beyond the stream's end, then close out.
	st.injectDue(^uint64(0))
	st.chk.Check()

	res.Faults = st.results
	res.Checker = st.chk.Report()
	for _, fr := range res.Faults {
		res.Injected++
		if !fr.Armed {
			continue
		}
		res.Armed++
		if fr.Fault.Kind.Benign() {
			res.BenignArmed++
			if fr.Detected {
				res.BenignFlagged++
			}
			continue
		}
		res.TamperArmed++
		if fr.Detected {
			res.TamperDetected++
		}
		if fr.Recovered {
			res.Recovered++
		}
	}
	s := st.mc.Stats()
	res.PostFaultMemoLookups = s.L0MemoLookupsAll - st.memoLookupsAtLast
	res.PostFaultMemoHits = s.L0MemoHitsAll - st.memoHitsAtLast
	return res, nil
}

// campaignState carries the schedule cursor, the checker and the results
// through a campaign run.
type campaignState struct {
	sched   Schedule
	next    int
	mc      *engine.MC
	chk     *checker.Checker
	results []Result

	memoLookupsAtLast uint64
	memoHitsAtLast    uint64
}

// mix is splitmix64's finalizer: deterministic target selection from salt.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// injectDue runs, in schedule order, every fault due at or before access n.
func (st *campaignState) injectDue(n uint64) {
	for st.next < len(st.sched) && n >= st.sched[st.next].AtAccess {
		st.inject(st.sched[st.next])
		st.next++
	}
}

// inject executes one fault's drill: corrupt state, probe, score.
func (st *campaignState) inject(f Fault) {
	mc := st.mc
	r := Result{Fault: f, Block: -1}
	store := mc.Store()
	if store == nil {
		r.Note = "non-secure mode: nothing to corrupt"
		st.record(r)
		return
	}
	n := store.NumDataBlocks()
	b := int(mix(f.Salt) % uint64(n))
	addr := store.DataBlockAddr(b)
	mc.Tracer().Emit(obs.EvFaultInjected, addr, uint64(f.Kind), f.AtAccess)

	switch f.Kind {
	case CiphertextFlip:
		r.Block = b
		r.Armed = mc.TamperCiphertext(b) == nil
		st.probe(addr, &r)

	case MACTamper:
		r.Block = b
		r.Armed = mc.TamperMAC(b) == nil
		st.probe(addr, &r)

	case Replay:
		r.Block = b
		ct, mac := mc.SnapshotCiphertext(b)
		mc.Write(addr) // advance the counter and re-seal
		r.Armed = mc.ReplayOldCiphertext(b, ct, mac) == nil
		st.probe(addr, &r)

	case CounterCorrupt:
		r.Block = b
		// Materialize the DRAM image under the current counter first so
		// the corruption desynchronizes counter and ciphertext (a lazily
		// installed image would otherwise seal under the corrupt value).
		mc.SnapshotCiphertext(b)
		cur := store.Counter(0, b)
		mc.CorruptCounter(0, b, cur+0x5eed)
		r.Armed = true
		st.probe(addr, &r)

	case TreeCounterCorrupt:
		st.injectTreeCorrupt(f, b, &r)

	case MemoPoison:
		st.injectMemoPoison(f, b, &r)

	case CacheTagCorrupt:
		// An address far beyond the data+metadata layout: classification
		// must reject it at writeback.
		bogus := (uint64(1) << 40) ^ (mix(f.Salt) &^ 63)
		if _, _, ok := store.ClassifyAddr(bogus); ok {
			bogus = uint64(1) << 41
		}
		mc.PoisonCounterCache(bogus)
		mc.EvictCounterLine(bogus)
		r.Armed = true
		// The violation was recorded during the eviction; it surfaces on
		// the next access's Outcome.
		st.probe(addr, &r)

	case DroppedWriteback:
		r.Block = b
		r.Armed = mc.DropNextWriteback(b) == nil
		mc.Write(addr) // the lost write
		st.probe(addr, &r)

	case TransientBitFlip:
		r.Block = b
		r.Armed = mc.TamperTransient(b, 1) == nil
		st.probe(addr, &r)

	case CounterExhaust:
		r.Block = b
		r.Armed = mc.ForceCounterCeiling(addr) == nil
		out := mc.Write(addr)
		r.Detected = out.Rekeyed || len(out.Violations) > 0
		r.Rekeyed = out.Rekeyed
		probe := mc.Read(addr)
		r.Recovered = len(probe.Violations) == 0 && !probe.Rekeyed
		r.Note = "56-bit ceiling write"

	case DuplicatedWriteback:
		r.Block = b
		mc.Write(addr)
		r.Armed = mc.DuplicateWriteback(b) == nil
		st.probe(addr, &r)

	case PowerLoss:
		r.Block = b
		mc.PowerLoss()
		r.Armed = true
		st.probe(addr, &r)
	}

	st.record(r)
}

// probe reads addr and scores detection from the Outcome, then probes once
// more to score recovery.
func (st *campaignState) probe(addr uint64, r *Result) {
	out := st.mc.Read(addr)
	r.Detected = len(out.Violations) > 0 || out.Rekeyed
	r.Rekeyed = r.Rekeyed || out.Rekeyed
	if len(out.Violations) > 0 {
		r.Note = out.Violations[0].Error()
	}
	second := st.mc.Read(addr)
	r.Rekeyed = r.Rekeyed || second.Rekeyed
	r.Recovered = len(second.Violations) == 0 && !second.Rekeyed
}

// injectTreeCorrupt rolls an L1 tree counter backwards and scores
// detection via the checker's regression scan; recovery is the reboot.
func (st *campaignState) injectTreeCorrupt(f Fault, b int, r *Result) {
	mc, store := st.mc, st.mc.Store()
	if store.Levels() < 1 {
		r.Note = "scheme has no tree levels"
		return
	}
	// Re-baseline the checker first so a key epoch advanced by an earlier
	// fault does not mask this regression.
	st.chk.Check()
	before := st.chk.Report()

	nl1 := store.TreeLevelLen(1)
	x := -1
	for try := 0; try < nl1; try++ {
		cand := int((mix(f.Salt) + uint64(try)) % uint64(nl1))
		if store.Counter(1, cand) > 0 {
			x = cand
			break
		}
	}
	if x < 0 {
		// Every L1 counter is zero (a recent re-key reset the tree).
		// Stand in a legitimately-advanced history first — raise one
		// counter, re-baseline the checker on it — then roll it back.
		x = int(mix(f.Salt) % uint64(nl1))
		mc.CorruptCounter(1, x, 0x1000+mix(f.Salt)%0x1000)
		st.chk.Check()
	}
	r.Armed = true
	r.Block = x
	cur := store.Counter(1, x)
	mc.CorruptCounter(1, x, cur/2)

	st.chk.Check()
	after := st.chk.Report()
	r.Detected = after.Counts[checker.ClassTreeRegression] > before.Counts[checker.ClassTreeRegression]
	r.Note = fmt.Sprintf("L1[%d] rolled back %d->%d", x, cur, cur/2)

	// Metadata rollback is unrecoverable in place: reboot (§VII), then
	// verify the machine decrypts cleanly again.
	out := mc.Rekey()
	r.Rekeyed = out.Rekeyed
	st.chk.Check() // consume the epoch change (re-baseline)
	probe := mc.Read(store.DataBlockAddr(b))
	r.Recovered = out.Rekeyed && len(probe.Violations) == 0
}

// injectMemoPoison poisons a live L0 table entry serving some block's
// counter value, then probes that block.
func (st *campaignState) injectMemoPoison(f Fault, b int, r *Result) {
	mc, store := st.mc, st.mc.Store()
	tbl := mc.L0Table()
	if tbl == nil {
		r.Note = "no memoization table (baseline mode)"
		return
	}
	n := store.NumDataBlocks()
	for try := 0; try < n; try++ {
		cand := int((mix(f.Salt) + uint64(try)) % uint64(n))
		v := store.Counter(0, cand)
		if v > counter.MaxCounter {
			continue
		}
		if tbl.Contains(v) && mc.PoisonMemoEntry(v) {
			r.Armed = true
			r.Block = cand
			r.Note = fmt.Sprintf("poisoned value %d", v)
			st.probe(store.DataBlockAddr(cand), r)
			return
		}
	}
	r.Note = "no live table entry matches any block counter"
}

func (st *campaignState) record(r Result) {
	st.results = append(st.results, r)
	s := st.mc.Stats()
	st.memoLookupsAtLast = s.L0MemoLookupsAll
	st.memoHitsAtLast = s.L0MemoHitsAll
}
