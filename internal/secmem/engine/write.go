package engine

import (
	"rmcc/internal/core"
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
	l0Idx := mc.store.NodeIndex(i)

	// Writes need the counter block resident (and dirty): encrypting the
	// block consumes and updates its counter.
	chain, l0Hit, _ := mc.walkChain(l0Idx, true, false, &out)
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
		mc.trace.Emit(ev, addr, mc.store.Counter(0, i), 1)
	}

	// 56-bit counter ceiling (paper §VII): when this write's increment — or
	// the relevel it could force — cannot be represented, the architecture
	// re-keys all of memory ("reboot") and the write proceeds in the fresh
	// epoch with every counter reset.
	if mc.store.GroupMax(0, l0Idx) >= counter.MaxCounter {
		mc.stats.CounterOverflows++
		mc.recordViolation(&IntegrityError{
			Kind: ViolationCounterOverflow, Addr: addr, Block: i, Recovered: true,
			Detail: "56-bit ceiling reached; whole-memory re-key",
		})
		mc.rekey(&out)
		// The re-key dropped the counter cache; bring the (fresh) counter
		// block back for the write itself.
		mc.ensureCounterBlock(mc.store.NodeAddr(0, l0Idx), true, &out)
	}

	// l0Table is nil outside RMCC mode, leaving the baseline +1.
	switch s, _ := mc.advance(0, i, mc.l0Table, &out); s {
	case stepJump:
		mc.stats.WriteJumps++
	case stepOverflow:
		mc.stats.BaselineOverflows++
	case stepRelevel:
		mc.stats.WriteJumps++
		mc.stats.WriteJumpRelevels++
		mc.stats.OverheadL0Blocks += uint64(mc.relevelCost())
	case stepDenied:
		mc.stats.WriteJumpsDenied++
	}

	// Encrypt the block under its new counter and write it (with its MAC,
	// co-located per Table I) to memory.
	if mc.contents != nil {
		mc.contents.writeBlock(i, mc.store.Counter(0, i), addr&^63)
	}
	out.Extra = append(out.Extra, Traffic{Addr: addr &^ 63, Write: true, Kind: dram.KindData})

	mc.finish(&out)
	return out
}

// step names the update advance made.
type step int

const (
	stepIncrement step = iota // +1: no memoized value to jump to
	stepJump                  // onto the nearest memoized value; the group still encodes
	stepOverflow              // +1 overflowed anyway: releveled, as the baseline would be
	stepRelevel               // releveled onto a memoized value, charged to the budget
	stepDenied                // the budget refused that relevel: +1
)

// advance makes the write-side update of level-l counter i (§IV-B, with
// the §IV-C2 overflow rules): a data write at level 0 through the L0
// table, a tree write-back through the L1 table at level 1 and through
// none above (a nil tbl is the baseline policy, +1). advance
//
//   - jumps to the nearest memoized value above the counter when the group
//     still encodes it (a memoized value at +1 is no jump: +1 lands on it);
//   - if +1 would overflow anyway, relevels at no charge, as the baseline
//     would: onto the nearest memoized value above the group's maximum
//     when there is a jump to make and such a value, else onto
//     maximum+1;
//   - otherwise relevels onto that value, charging the table's budget the
//     read and write of every block the group covers;
//   - and takes +1 if the budget refuses or no memoized value lies above
//     the group's maximum.
//
// A relevel target must lie above the group's maximum, and the nearest
// memoized value above the counter can lie below it; advance then lifts
// it to the nearest memoized value above the maximum. advance returns the
// update made and how many blocks a relevel rewrote.
func (mc *MC) advance(l, i int, tbl *core.Table, out *Outcome) (step, int) {
	cur := mc.store.Counter(l, i)
	var target uint64
	jump := false
	if tbl != nil {
		target, jump = tbl.NearestMemoized(cur)
		jump = jump && target > cur+1
	}
	s, next := stepIncrement, cur+1
	if jump && mc.store.CanEncode(l, i, target) {
		s, next = stepJump, target
	} else if overflow := !mc.store.CanEncode(l, i, next); jump || overflow {
		hi := mc.store.GroupMax(l, mc.store.NodeIndex(i))
		if jump && target <= hi {
			target, jump = tbl.NearestMemoized(hi)
		}
		switch {
		case overflow:
			if !jump {
				target = hi + 1
			}
			return stepOverflow, mc.relevel(l, i, target, out)
		case jump && tbl.SpendBudget(mc.relevelCost()):
			return stepRelevel, mc.relevel(l, i, target, out)
		case jump:
			s = stepDenied
		}
	}
	mc.observe(l, next)
	mc.store.Set(l, i, next)
	return s, 0
}

// relevelCost is the budget an RMCC-induced relevel charges: a read and a
// write of every block one group covers (§IV-C2).
func (mc *MC) relevelCost() int { return 2 * mc.store.Coverage() }

// observe traces level l's observed-max register (§IV-D2) when the
// counter write about to move a level-l counter to v raises it. The store
// keeps the registers; every counter write on the update path comes here
// first.
func (mc *MC) observe(l int, v uint64) {
	if v > mc.store.ObservedMax(l) {
		mc.trace.Emit(obs.EvOSMUpdate, uint64(l), v, 0)
	}
}

// relevel executes an overflow: every counter of the level-l group holding
// counter i moves to target, and every block the group protects is read
// and rewritten — data blocks re-encrypted at level 0, child nodes
// re-MACed above. Then the group's own node records the change: a data
// group's counter block is dirtied (fetched again if the walk lost it),
// while a tree node, left resident and dirty by the update that overflowed
// it, has its own counter bumped one level up, since every minor it holds
// changed. It returns how many blocks it rewrote.
func (mc *MC) relevel(l, i int, target uint64, out *Outcome) int {
	mc.observe(l, target)
	start, end := mc.store.Relevel(l, i, target)
	kind := dram.KindOverflowL1Plus
	if l == 0 {
		kind = dram.KindOverflowL0
	}
	for c := start; c < end; c++ {
		var a uint64
		if l == 0 {
			a = mc.store.DataBlockAddr(c)
			if mc.contents != nil {
				mc.contents.reencrypt(c, target, a)
			}
		} else {
			a = mc.store.NodeAddr(l-1, c)
		}
		out.OverflowTraffic = append(out.OverflowTraffic,
			Traffic{Addr: a, Write: false, Kind: kind},
			Traffic{Addr: a, Write: true, Kind: kind},
		)
	}
	node := mc.store.NodeIndex(i)
	if l == 0 {
		mc.ensureCounterBlock(mc.store.NodeAddr(0, node), true, out)
	} else {
		mc.bumpTreeCounter(l+1, node, out)
	}
	return end - start
}
