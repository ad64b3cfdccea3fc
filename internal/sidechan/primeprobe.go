package sidechan

import (
	"rmcc/internal/rng"
	"rmcc/internal/workload"
)

// PrimeProbe is the counter-cache prime+probe sweeper with a
// secret-dependent victim interleaved. Each epoch:
//
//  1. prime: touch probeWays lines in every counter-cache set, fully
//     evicting all 16 sets (and self-thrashing the aligned LLC sets);
//  2. victim write phase: the victim performs 16 + 32·k secret-dependent
//     writebacks of one scratch block (k ∈ 0..3 is the epoch's secret
//     class), padded to a constant 112 slots with writebacks rotated over
//     64 dummy lines so the epoch length never depends on the secret (the
//     rotation keeps every dummy counter far below the memo table's
//     range). Every slot evicts the stored line through the whole
//     hierarchy with a 128 KiB-strided conflict sweep, forcing the
//     writeback — and the fetch-read before it — to reach the MC;
//  3. background writer: 128 writebacks of an unrelated block keep the
//     Observed-System-Max register far above the memo table, so the
//     hardened mode's OSM clamp never engages (a clamped insertion at
//     OSM+1 would re-leak the maximum counter);
//  4. victim read burst: 480 reads of the scratch block (re-evicted after
//     each), all above the memo table max — these drive the table's
//     over-max count across its insertion threshold, so the one group
//     insertion per epoch fires mid-burst, when the epoch's read
//     histogram peaks at the victim's counter;
//  5. decoy reads: 96 distinct lines whose counter blocks all map to
//     counter-cache set k+1, the classic secret-dependent-set signal;
//  6. probe: re-walk the sweep, observing (via the trace) which counter
//     sets the victim touched.
//
// Two channels result. The memo-insert channel: the stock policy places
// the new group's start at the first watchpoint covering the quantile of
// the epoch's reads — the first grid point above the victim's counter —
// so the insertion offset (start − previous table max) is exactly
// 9 + 32k in steady state: the secret, read straight out of the table's
// adaptation. The ctr-sets channel: the per-set counter-cache miss
// histogram peaks at the decoy set. See docs/SIDECHANNEL.md for the
// arithmetic and the threshold/quantile tuning RunLeakage applies.
//
// The access stream is deterministic per seed (the only randomness is the
// per-epoch class sequence, reproduced by Schedule) and loops epochs
// until the sink stops it.
type PrimeProbe struct {
	probe, decoy, victim, dummy, bg, conflict, pad uint64
	footprint                                      uint64
}

// Tunables (see the epoch walk above; counts are per epoch).
const (
	ppClasses   = 4
	ppPushBase  = 16
	ppPushDelta = 32
	ppPushSlots = ppPushBase + (ppClasses-1)*ppPushDelta // constant padding
	ppBgSlots   = 128
	ppBurst     = 480
	ppDecoys    = 96
	// ppDummyLines spreads the padding writebacks so each dummy counter
	// climbs ~(112−16)/64 per epoch and never crosses the table max.
	ppDummyLines = 64

	// Warmup slot counts stop at counter 120 — just under the cold
	// table's 0..127 coverage, so warmup generates no over-max reads and
	// the insertion threshold starts the first epoch at zero.
	ppVictimWarm = 120
	ppDummyWarm  = 2 * ppDummyLines
	ppBgWarm     = 120

	ppClassSalt = 0x05ca1ab1ec1a55e5
)

// Derived MC-access accounting. Every CPU access the adversary issues is
// an LLC miss (probe/decoy/conflict lines self-thrash their sets, pushed
// lines are flushed per slot), so MC reads == CPU accesses; each push
// slot additionally produces exactly one writeback.
const (
	ppSweepCPU    = ctrSets * probeWays // one full sweep
	ppEpochWrites = ppPushSlots + ppBgSlots
	ppEpochCPU    = 2*ppSweepCPU + (ppPushSlots+ppBgSlots+ppBurst)*(1+evictWays) + ppDecoys
	ppEpochMC     = ppEpochCPU + ppEpochWrites

	ppWarmWrites = ppVictimWarm + ppDummyWarm + ppBgWarm
	ppWarmRawCPU = ppSweepCPU + ppWarmWrites*(1+evictWays)
	// ppWarmPad extends the warmup with single-touch clean reads so the
	// warmup spans exactly one table epoch of MC accesses.
	ppWarmPad = ppEpochMC - (ppWarmRawCPU + ppWarmWrites)
)

// NewPrimeProbe lays out the attacker's address space.
func NewPrimeProbe() *PrimeProbe {
	l := newRegionAlloc()
	w := &PrimeProbe{}
	w.probe = l.region(probeWays * conflictStride)
	w.decoy = l.region(ppDecoys*conflictStride + (ppClasses+1)*ctrCoverage)
	w.victim = l.region(lineBytes)
	w.dummy = l.region(ppDummyLines * lineBytes)
	w.bg = l.region(lineBytes)
	w.conflict = l.region(evictWays*conflictStride + ppDummyLines*lineBytes)
	w.pad = l.region(ppWarmPad * lineBytes)
	w.footprint = l.next
	return w
}

// Name implements workload.Workload.
func (w *PrimeProbe) Name() string { return "ppSweep" }

// FootprintBytes implements workload.Workload.
func (w *PrimeProbe) FootprintBytes() uint64 { return w.footprint }

// Classes implements Adversary.
func (w *PrimeProbe) Classes() int { return ppClasses }

// WarmupAccesses implements Adversary: one sweep, the warm pushes, and
// the pad reads that round warmup up to one full table epoch.
func (w *PrimeProbe) WarmupAccesses() uint64 {
	return ppWarmRawCPU + ppWarmPad
}

// EpochAccesses implements Adversary: the constant per-epoch length.
func (w *PrimeProbe) EpochAccesses() uint64 { return ppEpochCPU }

// EpochMCAccesses implements Adversary.
func (w *PrimeProbe) EpochMCAccesses() uint64 { return ppEpochMC }

// Schedule implements Adversary.
func (w *PrimeProbe) Schedule(seed uint64, epochs int) []int {
	cls := rng.New(seed ^ ppClassSalt)
	out := make([]int, epochs)
	for i := range out {
		out[i] = cls.Intn(ppClasses)
	}
	return out
}

// Run implements workload.Workload.
func (w *PrimeProbe) Run(seed uint64, sink workload.Sink) {
	e := &emit{sink: sink}
	cls := rng.New(seed ^ ppClassSalt)

	// Warmup: one sweep to settle the caches, then lift the victim and
	// background counters to the top of the cold table's coverage.
	w.sweep(e)
	w.pushSlots(e, w.victim, ppVictimWarm, 1)
	w.pushSlots(e, w.dummy, ppDummyWarm, ppDummyLines)
	w.pushSlots(e, w.bg, ppBgWarm, 1)
	for i := 0; i < ppWarmPad && !e.stopped; i++ {
		e.load(w.pad + uint64(i)*lineBytes)
	}

	dummyPhase := 0
	for !e.stopped {
		k := cls.Intn(ppClasses)
		w.sweep(e) // prime
		w.pushSlots(e, w.victim, ppPushBase+k*ppPushDelta, 1)
		// Rotate the dummy padding's start line so consecutive epochs
		// spread their writes evenly regardless of k.
		pad := ppPushSlots - (ppPushBase + k*ppPushDelta)
		w.pushSlotsFrom(e, w.dummy, pad, ppDummyLines, dummyPhase)
		dummyPhase = (dummyPhase + pad) % ppDummyLines
		w.pushSlots(e, w.bg, ppBgSlots, 1)
		for r := 0; r < ppBurst && !e.stopped; r++ {
			e.load(w.victim)
			w.conflictSweep(e, 0)
		}
		for j := 0; j < ppDecoys && !e.stopped; j++ {
			e.load(w.decoy + uint64(k+1)*ctrCoverage + uint64(j)*conflictStride)
		}
		w.sweep(e) // probe
	}
}

// sweep walks every counter-cache set with probeWays lines each.
func (w *PrimeProbe) sweep(e *emit) {
	for s := 0; s < ctrSets; s++ {
		for way := 0; way < probeWays; way++ {
			if !e.load(w.probe + uint64(way)*conflictStride + uint64(s)*ctrCoverage) {
				return
			}
		}
	}
}

// pushSlots performs n store+evict slots rotating over the first lines
// lines of base: each store dirties a line and the conflict sweep forces
// the writeback (fetch-read + counter increment) to the MC.
func (w *PrimeProbe) pushSlots(e *emit, base uint64, n, lines int) {
	w.pushSlotsFrom(e, base, n, lines, 0)
}

func (w *PrimeProbe) pushSlotsFrom(e *emit, base uint64, n, lines, phase int) {
	for i := 0; i < n; i++ {
		off := uint64((phase+i)%lines) * lineBytes
		if !e.store(base + off) {
			return
		}
		w.conflictSweep(e, off)
	}
}

// conflictSweep flushes the line at sub-128 KiB offset off out of every
// cache level (the conflict lines share its set index everywhere, and
// evictWays covers the full L1→L2→LLC cascade).
func (w *PrimeProbe) conflictSweep(e *emit, off uint64) {
	for i := 0; i < evictWays; i++ {
		if !e.load(w.conflict + off + uint64(i)*conflictStride) {
			return
		}
	}
}
