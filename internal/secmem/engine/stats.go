package engine

import "rmcc/internal/mem/dram"

// Stats aggregates everything the figures need from the functional engine.
// All traffic counts are in 64-byte block transfers.
type Stats struct {
	Reads  uint64 // LLC read misses processed
	Writes uint64 // LLC writebacks processed

	// Counter cache behaviour.
	CtrL0Hits       uint64 // L0 counter block resident on access
	CtrL0Misses     uint64
	CtrL0ReadMisses uint64    // the subset of misses on read requests
	L1Misses        uint64    // L0 misses whose L1 node also missed
	ChainFetches    [8]uint64 // counter-chain fetches by level

	// Memoization, restricted to counter misses (Figure 10 and the §VI
	// "92 % of counter misses" headline).
	L0MemoLookupsOnMiss   uint64
	L0MemoGroupHitsOnMiss uint64
	L0MemoMRUHitsOnMiss   uint64
	L1MemoLookupsOnMiss   uint64
	L1MemoHitsOnMiss      uint64
	AcceleratedMisses     uint64 // L0 memo hit && L1 covered (cache or memo)

	// Memoization over all accessed counter values (Figure 19's metric).
	L0MemoLookupsAll uint64
	L0MemoHitsAll    uint64

	// Update-policy activity.
	ReadUpdates        uint64 // read-triggered counter jumps applied
	ReadUpdateRelevels uint64 // read-triggered jumps that releveled a group
	ReadUpdatesDenied  uint64 // skipped for lack of budget
	WriteJumps         uint64 // write-time jumps beyond +1
	WriteJumpRelevels  uint64 // write jumps that releveled (budget-charged)
	WriteJumpsDenied   uint64
	BaselineOverflows  uint64 // relevels the baseline policy would also pay
	TreeJumps          uint64

	// Traffic by kind, in block transfers (includes the data accesses
	// themselves so totals are comparable across modes).
	TrafficBlocks [dram.NumKinds]uint64

	// Overhead traffic charged to the RMCC budgets (Figures 16/20/22).
	OverheadL0Blocks uint64
	OverheadL1Blocks uint64

	// IntegrityFailures counts MAC check mismatches (tamper detection);
	// DecryptMismatches counts plaintext round-trip failures. Both must be
	// zero in untampered runs (enforced by integration tests).
	IntegrityFailures uint64
	DecryptMismatches uint64

	// Fault detection and recovery (see errors.go / fault.go).
	ViolationsByKind     [NumViolationKinds]uint64 // detections by class
	MetadataCorruptions  uint64                    // non-metadata addresses caught in the counter cache
	MemoPoisonDetected   uint64                    // poisoned memo entries caught at lookup
	MemoPoisonRepaired   uint64                    // poisoned entries re-filled in place
	RetryAttempts        uint64                    // re-fetches issued under RetryRefetch/RekeyRecover
	RetryRecoveries      uint64                    // violations cleared by a retry (transient faults)
	RekeyRecoveries      uint64                    // violations escalated to the re-key path
	CounterOverflows     uint64                    // 56-bit ceiling hits forcing a re-key
	Rekeys               uint64                    // whole-memory re-key/reboot events
	RekeyBlocks          uint64                    // block transfers spent re-encrypting memory
	DroppedWritebacks    uint64                    // injected lost writes
	DuplicatedWritebacks uint64                    // injected duplicate writes (benign)
	PowerLosses          uint64                    // injected power-loss events
}

// TotalTraffic returns total block transfers across all kinds.
func (s Stats) TotalTraffic() uint64 {
	var t uint64
	for _, v := range s.TrafficBlocks {
		t += v
	}
	return t
}

// CtrMissRate returns counter misses per processed read (Figure 3's
// per-LLC-miss counter miss rate when fed LLC misses).
func (s Stats) CtrMissRate() float64 {
	if tot := s.CtrL0Hits + s.CtrL0Misses; tot > 0 {
		return float64(s.CtrL0Misses) / float64(tot)
	}
	return 0
}

// MemoHitRateOnMisses returns the fraction of L0 counter misses whose value
// was memoized (Figure 10's bar height).
func (s Stats) MemoHitRateOnMisses() float64 {
	if s.L0MemoLookupsOnMiss == 0 {
		return 0
	}
	return float64(s.L0MemoGroupHitsOnMiss+s.L0MemoMRUHitsOnMiss) / float64(s.L0MemoLookupsOnMiss)
}

// MemoHitRateAll returns the fraction of all accessed counter values that
// were memoized (Figure 19's metric).
func (s Stats) MemoHitRateAll() float64 {
	if s.L0MemoLookupsAll == 0 {
		return 0
	}
	return float64(s.L0MemoHitsAll) / float64(s.L0MemoLookupsAll)
}

// AcceleratedRate returns the §VI headline: the fraction of counter misses
// (on reads — the requests with decryption/verification on their critical
// path) that RMCC accelerated.
func (s Stats) AcceleratedRate() float64 {
	if s.CtrL0ReadMisses == 0 {
		return 0
	}
	return float64(s.AcceleratedMisses) / float64(s.CtrL0ReadMisses)
}

// Stats returns a copy of the counters.
func (mc *MC) Stats() Stats { return mc.stats }

// ResetStats zeroes the engine counters (after warmup) without touching
// counter or cache state.
func (mc *MC) ResetStats() {
	mc.stats = Stats{}
	if mc.ctrCache != nil {
		mc.ctrCache.ResetStats()
	}
}

// addTraffic adds an access's DRAM transfers, Extra and OverflowTraffic,
// to the per-kind traffic totals.
func (mc *MC) addTraffic(out *Outcome) {
	for _, t := range out.Extra {
		mc.stats.TrafficBlocks[t.Kind]++
	}
	for _, t := range out.OverflowTraffic {
		mc.stats.TrafficBlocks[t.Kind]++
	}
}
