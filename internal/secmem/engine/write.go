package engine

import (
	"rmcc/internal/mem/dram"
	"rmcc/internal/obs"
	"rmcc/internal/secmem/counter"
)

// Write processes one LLC writeback to the data block containing addr:
// counter update per the active policy, encryption and MAC of the block,
// and any overflow traffic. The block write itself is recorded in Extra.
func (mc *MC) Write(addr uint64) Outcome {
	out := Outcome{DataAddr: addr, Write: true}
	mc.stats.Writes++
	if mc.cfg.Mode == NonSecure {
		mc.stats.TrafficBlocks[dram.KindData]++
		return out
	}
	out.Extra = mc.scratchExtra[:0]

	i := mc.store.DataBlockIndex(addr)
	l0Idx := mc.store.L0Index(i)

	// §IV-D2 data-OSM tracing, as in Read: compare around the access.
	var preOSM uint64
	if mc.trace != nil {
		preOSM = mc.store.ObservedMax()
	}

	// Writes need the counter block resident (and dirty): encrypting the
	// block consumes and updates its counter.
	chain, l0Hit, _ := mc.walkChain(l0Idx, true, false, &out.Extra, &out.OverflowTraffic)
	out.CtrCacheHit = l0Hit
	out.Chain = chain
	if l0Hit {
		mc.stats.CtrL0Hits++
	} else {
		mc.stats.CtrL0Misses++
	}
	if mc.trace != nil {
		ev := obs.EvCtrCacheMiss
		if l0Hit {
			ev = obs.EvCtrCacheHit
		}
		mc.trace.Emit(ev, addr, mc.store.DataCounter(i), 1)
	}

	// 56-bit counter ceiling (paper §VII): when this write's increment — or
	// the relevel it could force — cannot be represented, the architecture
	// re-keys all of memory ("reboot") and the write proceeds in the fresh
	// epoch with every counter reset.
	if mc.store.GroupMax(l0Idx) >= counter.MaxCounter {
		mc.stats.CounterOverflows++
		mc.recordViolation(&IntegrityError{
			Kind: ViolationCounterOverflow, Addr: addr, Block: i, Recovered: true,
			Detail: "56-bit ceiling reached; whole-memory re-key",
		})
		mc.rekey(&out)
		// The re-key dropped the counter cache; bring the (fresh) counter
		// block back for the write itself.
		mc.ensureCounterBlock(mc.store.L0BlockAddr(l0Idx), true, &out.Extra, &out.OverflowTraffic)
	}

	cur := mc.store.DataCounter(i)
	next := cur + 1
	releveled := false

	if mc.cfg.Mode == RMCC && mc.l0Table != nil {
		if target, ok := mc.l0Table.NearestMemoized(cur); ok {
			switch {
			case target == next:
				// The memoized value is the natural increment: the common
				// steady state once a group sits inside a memoized window
				// (Figure 7).
			case mc.store.CanEncodeData(i, target):
				// A jump that stays encodable costs nothing extra: same
				// counter-block write, same data write.
				next = target
				mc.stats.WriteJumps++
			case !mc.store.CanEncodeData(i, next):
				// Baseline overflows too: relevel, landing directly on a
				// memoized value (§IV-C2) at no extra charge — the
				// baseline policy pays an equivalent relevel.
				relTarget := target
				if gm := mc.store.GroupMax(l0Idx); relTarget <= gm {
					if t2, ok2 := mc.l0Table.NearestMemoized(gm); ok2 {
						relTarget = t2
					} else {
						relTarget = gm + 1
					}
				}
				mc.relevelData(i, relTarget, &out, dram.KindOverflowL0)
				releveled = true
				mc.stats.BaselineOverflows++
			default:
				// RMCC-induced overflow: only if the budget covers the
				// 2×coverage relevel traffic (§IV-C2), otherwise fall back
				// to the baseline +1.
				relTarget := target
				if gm := mc.store.GroupMax(l0Idx); relTarget <= gm {
					t2, ok2 := mc.l0Table.NearestMemoized(gm)
					if !ok2 {
						break
					}
					relTarget = t2
				}
				cost := 2 * mc.store.Coverage()
				if mc.l0Table.SpendBudget(cost) {
					mc.relevelData(i, relTarget, &out, dram.KindOverflowL0)
					releveled = true
					mc.stats.WriteJumps++
					mc.stats.WriteJumpRelevels++
					mc.stats.OverheadL0Blocks += uint64(cost)
				} else {
					mc.stats.WriteJumpsDenied++
				}
			}
		}
	}

	if !releveled {
		if mc.store.CanEncodeData(i, next) {
			mc.store.SetDataCounter(i, next)
		} else {
			// Baseline overflow: relevel the group to one above its max.
			target := mc.store.GroupMax(l0Idx) + 1
			mc.relevelData(i, target, &out, dram.KindOverflowL0)
			mc.stats.BaselineOverflows++
		}
	}

	// Encrypt the block under its new counter and write it (with its MAC,
	// co-located per Table I) to memory.
	if mc.contents != nil {
		mc.contents.writeBlock(i, mc.store.DataCounter(i), addr&^63)
	}
	out.Extra = append(out.Extra, Traffic{Addr: addr &^ 63, Write: true, Kind: dram.KindData})

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
