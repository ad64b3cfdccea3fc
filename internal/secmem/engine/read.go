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
	l0Idx := mc.store.NodeIndex(i)
	ctrVal := mc.store.Counter(0, i)

	chain, l0Hit, l1Covered := mc.walkChain(l0Idx, false, true, &out)
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

	mc.finish(&out)
	return out
}

// verifyAndRecover decrypts and verifies block i, then applies the
// configured RecoveryPolicy to any failure: FailStop records the violation
// and moves on; RetryRefetch re-fetches up to retryLimit times, clearing
// transient faults; RekeyRecover additionally escalates persistent failures
// to the whole-memory re-key (executed by finish).
func (mc *MC) verifyAndRecover(i int, blockAddr uint64) {
	ptOK, macOK := mc.contents.verifyRead(i, mc.store.Counter(0, i), blockAddr)
	if ptOK && macOK {
		return
	}
	firstPt, firstMac := ptOK, macOK
	recovered := false
	if mc.cfg.Recovery != FailStop {
		for r := 0; r < retryLimit; r++ {
			mc.stats.RetryAttempts++
			mc.stats.TrafficBlocks[dram.KindData]++ // the re-fetch
			ptOK, macOK = mc.contents.verifyRead(i, mc.store.Counter(0, i), blockAddr)
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
	l0Idx := mc.store.NodeIndex(i)
	if mc.store.CanEncode(0, i, target) {
		if !mc.l0Table.SpendBudget(1) {
			mc.stats.ReadUpdatesDenied++
			return
		}
		mc.observe(0, target)
		mc.store.Set(0, i, target)
		if mc.contents != nil {
			mc.contents.reencrypt(i, target, mc.store.DataBlockAddr(i))
		}
		// The block is rewritten with its new ciphertext, and its counter
		// block, resident since the chain walk unless the walk's own
		// traffic evicted it, becomes dirty.
		mc.ensureCounterBlock(mc.store.NodeAddr(0, l0Idx), true, out)
		out.Extra = append(out.Extra, Traffic{Addr: mc.store.DataBlockAddr(i), Write: true, Kind: dram.KindData})
		mc.stats.ReadUpdates++
		mc.stats.OverheadL0Blocks++
		return
	}
	// The jump would overflow the group: relevel everything onto the
	// memoized value, lifted above the group's maximum as advance lifts
	// it, if the budget allows the 2×coverage transfers.
	if hi := mc.store.GroupMax(0, l0Idx); target <= hi {
		target, ok = mc.l0Table.NearestMemoized(hi)
	}
	if !ok || !mc.l0Table.SpendBudget(mc.relevelCost()) {
		mc.stats.ReadUpdatesDenied++
		return
	}
	mc.relevel(0, i, target, out)
	mc.stats.ReadUpdates++
	mc.stats.ReadUpdateRelevels++
	mc.stats.OverheadL0Blocks += uint64(mc.relevelCost())
}
