package engine

import (
	"rmcc/internal/mem/dram"
	"rmcc/internal/obs"
	"rmcc/internal/secmem/counter"
)

// ensureCounterBlock brings a metadata block (L0 counter block or tree
// node) into the counter cache, returning whether it was already resident.
// Any dirty victim displaced on the way is written back, which bumps the
// victim's own write counter in its parent — the eviction cascade. All
// generated transfers are appended to out/overflow.
func (mc *MC) ensureCounterBlock(addr uint64, dirty bool, out *[]Traffic, overflow *[]Traffic) (hit bool) {
	res := mc.ctrCache.Access(addr, dirty)
	if res.Evicted && res.Writeback {
		mc.writebackCounterBlock(res.VictimAddr, out, overflow)
	}
	if !res.Hit {
		*out = append(*out, Traffic{Addr: addr, Write: false, Kind: dram.KindCounter})
	}
	return res.Hit
}

// writebackCounterBlock writes a dirty metadata block to DRAM and bumps its
// parent counter (the block's own write counter lives one level up). A line
// whose address maps to no metadata block — a corrupted tag — is dropped
// without a DRAM write or parent update, and the corruption is recorded as
// a typed violation on the current access's Outcome.
func (mc *MC) writebackCounterBlock(addr uint64, out *[]Traffic, overflow *[]Traffic) {
	level, idx, ok := mc.store.ClassifyAddr(addr)
	if !ok {
		mc.stats.MetadataCorruptions++
		mc.recordViolation(&IntegrityError{
			Kind: ViolationMetadataAddr, Addr: addr, Block: -1, Recovered: true,
			Detail: "line dropped without writeback or parent update",
		})
		return
	}
	*out = append(*out, Traffic{Addr: addr, Write: true, Kind: dram.KindCounter})
	mc.bumpTreeCounter(level+1, idx, out, overflow)
}

// bumpTreeCounter increments the counter at tree level l protecting child
// block/node childIdx. Level l beyond the stored tree is the on-chip root:
// its counters update for free, ending the cascade.
func (mc *MC) bumpTreeCounter(l, childIdx int, out *[]Traffic, overflow *[]Traffic) {
	if l > mc.store.Levels() {
		return // root counters live on-chip
	}
	// The parent node must be resident (and becomes dirty) to update it.
	node := mc.store.TreeNodeIndex(childIdx)
	parentAddr := mc.store.TreeNodeAddr(l, node)
	mc.ensureCounterBlock(parentAddr, true, out, overflow)

	// Tree-counter ceiling: a node with a counter at the 56-bit limit can
	// neither advance it nor relevel above it (the same test the data path
	// applies to the L0 group); defer the whole-memory re-key to the end of
	// the current access (the cache walk in flight must not be yanked
	// mid-way).
	hi := mc.store.TreeNodeMax(l, node)
	if hi >= counter.MaxCounter {
		mc.stats.CounterOverflows++
		mc.recordViolation(&IntegrityError{
			Kind: ViolationCounterOverflow, Addr: parentAddr, Block: -1, Recovered: true,
			Detail: "tree counter at the 56-bit ceiling; re-key deferred to end of access",
		})
		mc.needRekey = true
		return
	}
	cur := mc.store.TreeCounter(l, childIdx)
	next := cur + 1

	// RMCC: memoization-aware update for L1 counters (the level the L1
	// table memoizes), budget-gated like the data path.
	if mc.cfg.Mode == RMCC && l == 1 && mc.l1Table != nil {
		if target, ok := mc.l1Table.NearestMemoized(cur); ok && target > next {
			if mc.store.CanEncodeTree(l, childIdx, target) {
				next = target
				mc.stats.TreeJumps++
			} else if !mc.store.CanEncodeTree(l, childIdx, cur+1) {
				// Baseline overflows anyway: relevel straight onto the
				// memoized value (§IV-C2), no budget charge.
				mc.relevelTree(l, childIdx, target, out, overflow, false)
				return
			} else {
				cost := 2 * mc.store.Coverage()
				if mc.l1Table.SpendBudget(cost) {
					mc.relevelTree(l, childIdx, target, out, overflow, true)
					mc.stats.TreeJumps++
					return
				}
			}
		}
	}

	if mc.store.CanEncodeTree(l, childIdx, next) {
		mc.store.SetTreeCounter(l, childIdx, next)
		if l == 1 && next > mc.observedTreeMax[1] {
			mc.observedTreeMax[1] = next
			mc.trace.Emit(obs.EvOSMUpdate, 1, next, 0)
		}
		return
	}
	// Baseline overflow: relevel the node to one above its current max.
	target := hi + 1
	if mc.cfg.Mode == RMCC && l == 1 && mc.l1Table != nil {
		if t, ok := mc.l1Table.NearestMemoized(hi); ok {
			target = t
		}
	}
	mc.relevelTree(l, childIdx, target, out, overflow, false)
}

// relevelTree executes a tree-node overflow: all child counters move to
// target and every child block must be re-MACed (read + write). charged
// marks RMCC-induced relevels whose traffic counts against the L1 budget.
func (mc *MC) relevelTree(l, childIdx int, target uint64, out *[]Traffic, overflow *[]Traffic, charged bool) {
	children := mc.store.RelevelTree(l, childIdx, target)
	if l == 1 && target > mc.observedTreeMax[1] {
		mc.observedTreeMax[1] = target
		mc.trace.Emit(obs.EvOSMUpdate, 1, target, 0)
	}
	for _, c := range children {
		var childAddr uint64
		if l == 1 {
			childAddr = mc.store.L0BlockAddr(c)
		} else {
			childAddr = mc.store.TreeNodeAddr(l-1, c)
		}
		*overflow = append(*overflow,
			Traffic{Addr: childAddr, Write: false, Kind: dram.KindOverflowL1Plus},
			Traffic{Addr: childAddr, Write: true, Kind: dram.KindOverflowL1Plus},
		)
		if charged {
			mc.stats.OverheadL1Blocks += 2
		}
	}
	if !charged {
		mc.stats.BaselineOverflows++
	}
	// Bump the node's own counter one level further up: its contents (all
	// minors) changed, and the rewrite of every child also dirtied them.
	// The children are metadata blocks already being written back above;
	// their own parent counters are the node we just releveled, so the
	// cascade terminates here with the node's parent.
	nodeIdx := mc.store.TreeNodeIndex(childIdx)
	mc.bumpTreeCounter(l+1, nodeIdx, out, overflow)
}

// walkChain performs the counter-chain lookup for a data access whose L0
// counter block is addressed by l0Addr (L0 block index l0Idx). It returns
// the chain of fetches needed (empty when the L0 block is cached) plus
// whether the L1 level was covered (cache hit or memoized) for the
// Accelerated computation, recording chain stats.
func (mc *MC) walkChain(l0Idx int, dirty bool, isRead bool, out *[]Traffic, overflow *[]Traffic) (chain []ChainFetch, l0Hit, l1Covered bool) {
	l0Addr := mc.store.L0BlockAddr(l0Idx)
	l0Hit = mc.ensureCounterBlock(l0Addr, dirty, out, overflow)
	if l0Hit {
		return nil, true, true
	}
	mc.stats.ChainFetches[0]++
	chain = append(mc.scratchChain[:0], ChainFetch{Addr: l0Addr, Level: 0})

	// Walk up: to verify the fetched level-(l-1) block we need its counter
	// at level l. A cache hit ends the walk.
	childIdx := l0Idx
	l1Covered = true
	for l := 1; l <= mc.store.Levels(); l++ {
		nodeAddr := mc.store.TreeNodeAddr(l, mc.store.TreeNodeIndex(childIdx))
		// The walk reads the node; verification does not dirty it.
		res := mc.ctrCache.Access(nodeAddr, false)
		if res.Evicted && res.Writeback {
			mc.writebackCounterBlock(res.VictimAddr, out, overflow)
		}
		if res.Hit {
			break
		}
		*out = append(*out, Traffic{Addr: nodeAddr, Write: false, Kind: dram.KindCounter})
		if l < len(mc.stats.ChainFetches) {
			mc.stats.ChainFetches[l]++
		}
		fetch := ChainFetch{Addr: nodeAddr, Level: l}
		// The fetched node at level l is verified using the child counter
		// at level l+1... but what accelerates *using* this node is the
		// memoization of the level-l counter value of the child below it.
		if l == 1 {
			mc.stats.L1Misses++
			l1Covered = false
			if mc.cfg.Mode == RMCC && mc.l1Table != nil {
				val := mc.store.TreeCounter(1, l0Idx)
				mc.stats.L1MemoLookupsOnMiss++
				if _, src := mc.l1Table.Lookup(val, isRead); src != 0 {
					fetch.MemoHit = true
					fetch.MemoSource = src
					mc.stats.L1MemoHitsOnMiss++
					l1Covered = true
				}
			}
		}
		chain = append(chain, fetch)
		childIdx = mc.store.TreeNodeIndex(childIdx)
	}
	mc.scratchChain = chain
	return chain, false, l1Covered
}
