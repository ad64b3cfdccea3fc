package engine

import (
	"rmcc/internal/core"
	"rmcc/internal/mem/dram"
	"rmcc/internal/obs"
)

// Read processes one LLC read miss for the data block containing addr and
// returns everything it caused. The data fetch itself is implied (the
// caller issues it); Outcome carries the counter-chain fetches, memoization
// results, and side traffic.
func (mc *MC) Read(addr uint64) Outcome {
	out := Outcome{DataAddr: addr}
	mc.stats.Reads++
	mc.stats.TrafficBlocks[dram.KindData]++
	if mc.cfg.Mode == NonSecure {
		return out
	}
	out.Extra = mc.scratchExtra[:0]

	i := mc.store.DataBlockIndex(addr)
	l0Idx := mc.store.L0Index(i)
	ctrVal := mc.store.DataCounter(i)

	// §IV-D2 data-OSM tracing: the register is maintained inside the
	// counter store, so advances are detected by comparing around the
	// access (only when a tracer is attached).
	var preOSM uint64
	if mc.trace != nil {
		preOSM = mc.store.ObservedMax()
	}

	chain, l0Hit, l1Covered := mc.walkChain(l0Idx, false, true, &out.Extra, &out.OverflowTraffic)
	out.CtrCacheHit = l0Hit
	out.Chain = chain
	if l0Hit {
		mc.stats.CtrL0Hits++
		mc.trace.Emit(obs.EvCtrCacheHit, addr, ctrVal, 0)
	} else {
		mc.stats.CtrL0Misses++
		mc.stats.CtrL0ReadMisses++
		mc.trace.Emit(obs.EvCtrCacheMiss, addr, ctrVal, 0)
	}

	// Functional content check first: the fetched block is decrypted and
	// verified under its current counter before any read-triggered update
	// re-encrypts it (re-sealing before verification would erase tamper
	// evidence). Applies the configured RecoveryPolicy on failure.
	if mc.contents != nil {
		mc.verifyAndRecover(i, addr&^63)
	}

	if mc.cfg.Mode == RMCC && mc.l0Table != nil {
		// Figure-19 metric: every accessed counter value, hit or miss.
		mc.stats.L0MemoLookupsAll++
		res, src := mc.l0Table.Lookup(ctrVal, true)
		// Only Poison stores a result other than fill(value), so a table it
		// never touched skips the cross-check: recomputing the AES on
		// every hit would spend the very work the hit exists to save.
		if src != core.MissSource && mc.l0Table.Poisoned() && res != mc.unit.CounterOnly(ctrVal) {
			// Poisoned memoization entry: the stored AES result disagrees
			// with a fresh computation. Repair the entry in place and fall
			// back to the baseline AES pipeline (treat as a memo miss).
			mc.stats.MemoPoisonDetected++
			mc.recordViolation(&IntegrityError{
				Kind: ViolationMemoPoison, Addr: addr, Block: i, Recovered: true,
				Detail: "entry re-filled; served by the AES pipeline",
			})
			mc.l0Table.Repair(ctrVal)
			mc.stats.MemoPoisonRepaired++
			src = core.MissSource
		}
		if src != core.MissSource {
			mc.stats.L0MemoHitsAll++
			mc.trace.Emit(obs.EvMemoHit, addr, ctrVal, uint64(src))
		} else {
			mc.trace.Emit(obs.EvMemoMiss, addr, ctrVal, 0)
		}
		out.L0MemoHit = src != core.MissSource
		out.L0MemoSource = src
		if !l0Hit {
			// Figure-10 / headline metrics: counter misses only.
			mc.stats.L0MemoLookupsOnMiss++
			switch src {
			case core.GroupSource:
				mc.stats.L0MemoGroupHitsOnMiss++
			case core.MRUSource:
				mc.stats.L0MemoMRUHitsOnMiss++
			}
			if len(chain) > 0 {
				chain[0].MemoHit = out.L0MemoHit
				chain[0].MemoSource = src
			}
			if out.L0MemoHit && l1Covered {
				mc.stats.AcceleratedMisses++
				out.Accelerated = true
			}
			// §IV-C1: read-triggered memoization-aware update for blocks
			// that rarely write back, capped by the bandwidth budget.
			if !out.L0MemoHit && mc.cfg.L0Table.EnableReadUpdate {
				mc.readTriggeredUpdate(i, ctrVal, &out)
			}
		}
	}

	for _, t := range out.Extra {
		mc.addTraffic(t)
	}
	for _, t := range out.OverflowTraffic {
		mc.addTraffic(t)
	}
	if mc.trace != nil {
		if v := mc.store.ObservedMax(); v > preOSM {
			mc.trace.Emit(obs.EvOSMUpdate, 0, v, 0)
		}
	}
	mc.finish(&out)
	mc.scratchExtra = out.Extra
	return out
}

// verifyAndRecover decrypts and verifies block i, then applies the
// configured RecoveryPolicy to any failure: FailStop records the violation
// and moves on; RetryRefetch re-fetches up to RetryLimit times, clearing
// transient faults; RekeyRecover additionally escalates persistent failures
// to the whole-memory re-key (executed by finish).
func (mc *MC) verifyAndRecover(i int, blockAddr uint64) {
	ptOK, macOK := mc.contents.verifyRead(i, mc.store.DataCounter(i), blockAddr)
	if ptOK && macOK {
		return
	}
	firstPt, firstMac := ptOK, macOK
	recovered := false
	if mc.cfg.Recovery != FailStop {
		for r := 0; r < mc.cfg.RetryLimit; r++ {
			mc.stats.RetryAttempts++
			mc.stats.TrafficBlocks[dram.KindData]++ // the re-fetch
			ptOK, macOK = mc.contents.verifyRead(i, mc.store.DataCounter(i), blockAddr)
			if ptOK && macOK {
				recovered = true
				mc.stats.RetryRecoveries++
				break
			}
		}
	}
	kind, detail := ViolationMAC, "MAC check failed on read"
	if !firstMac && !firstPt {
		detail = "MAC and plaintext checks failed on read"
	} else if firstMac && !firstPt {
		kind, detail = ViolationPlaintext, "plaintext mismatch with passing MAC"
	}
	if recovered {
		mc.recordViolation(&IntegrityError{
			Kind: kind, Addr: blockAddr, Block: i, Recovered: true,
			Detail: "transient fault cleared by re-fetch",
		})
		return
	}
	// Persistent failure: keep the legacy tamper counters accurate, then
	// either fail-stop or escalate per policy.
	if !firstPt {
		mc.stats.DecryptMismatches++
	}
	if !firstMac {
		mc.stats.IntegrityFailures++
	}
	v := &IntegrityError{Kind: kind, Addr: blockAddr, Block: i, Detail: detail}
	if mc.cfg.Recovery == RekeyRecover {
		v.Recovered = true
		v.Detail += "; escalated to whole-memory re-key"
		mc.needRekey = true
		mc.stats.RekeyRecoveries++
	}
	mc.recordViolation(v)
}

// readTriggeredUpdate raises a read block's counter onto a memoized value
// so future reads of this (possibly never-written) block hit the table.
// The extra traffic — rewriting the re-encrypted block, or releveling its
// whole group — is charged against the L0 budget.
func (mc *MC) readTriggeredUpdate(i int, cur uint64, out *Outcome) {
	target, ok := mc.l0Table.NearestMemoized(cur)
	if !ok {
		return
	}
	if mc.store.CanEncodeData(i, target) {
		if !mc.l0Table.SpendBudget(1) {
			mc.stats.ReadUpdatesDenied++
			return
		}
		mc.store.SetDataCounter(i, target)
		if mc.contents != nil {
			mc.contents.reencrypt(i, target, mc.store.DataBlockAddr(i))
		}
		// The block is rewritten with its new ciphertext; its counter
		// block is already resident (we just walked the chain) and dirty.
		mc.markL0Dirty(i, out)
		out.Extra = append(out.Extra, Traffic{Addr: mc.store.DataBlockAddr(i), Write: true, Kind: dram.KindData})
		mc.stats.ReadUpdates++
		mc.stats.OverheadL0Blocks++
		return
	}
	// The jump would overflow the group: relevel everything onto the
	// memoized value if the budget allows the 2×coverage transfers.
	groupMax := mc.groupMax(i)
	relevelTarget := target
	if relevelTarget <= groupMax {
		if t2, ok2 := mc.l0Table.NearestMemoized(groupMax); ok2 {
			relevelTarget = t2
		} else {
			mc.stats.ReadUpdatesDenied++
			return
		}
	}
	cost := 2 * mc.store.Coverage()
	if !mc.l0Table.SpendBudget(cost) {
		mc.stats.ReadUpdatesDenied++
		return
	}
	mc.relevelData(i, relevelTarget, out, dram.KindOverflowL0)
	mc.stats.ReadUpdates++
	mc.stats.ReadUpdateRelevels++
	mc.stats.OverheadL0Blocks += uint64(cost)
}

// groupMax returns the largest counter value in block i's L0 group.
func (mc *MC) groupMax(i int) uint64 {
	start, end := mc.store.GroupRange(mc.store.L0Index(i))
	var max uint64
	for b := start; b < end; b++ {
		if v := mc.store.DataCounter(b); v > max {
			max = v
		}
	}
	return max
}

// markL0Dirty dirties block i's L0 counter block in the counter cache
// (fetching it if a race evicted it), accounting any cascade.
func (mc *MC) markL0Dirty(i int, out *Outcome) {
	addr := mc.store.L0BlockAddr(mc.store.L0Index(i))
	mc.ensureCounterBlock(addr, true, &out.Extra, &out.OverflowTraffic)
}

// relevelData executes a group relevel: every covered block is re-encrypted
// under the target counter and rewritten (read + write per block).
func (mc *MC) relevelData(i int, target uint64, out *Outcome, kind dram.Kind) {
	blocks := mc.store.RelevelData(i, target)
	for _, b := range blocks {
		a := mc.store.DataBlockAddr(b)
		out.OverflowTraffic = append(out.OverflowTraffic,
			Traffic{Addr: a, Write: false, Kind: kind},
			Traffic{Addr: a, Write: true, Kind: kind},
		)
		if mc.contents != nil {
			mc.contents.reencrypt(b, target, a)
		}
	}
	mc.markL0Dirty(i, out)
}
