package engine

import (
	"rmcc/internal/core"
	"rmcc/internal/mem/dram"
	"rmcc/internal/secmem/counter"
)

// ensureCounterBlock brings a metadata block (L0 counter block or tree
// node) into the counter cache, returning whether it was already resident.
// Any dirty victim displaced on the way is written back, which bumps the
// victim's own write counter in its parent — the eviction cascade. All
// generated transfers are appended to the access's Outcome.
func (mc *MC) ensureCounterBlock(addr uint64, dirty bool, out *Outcome) (hit bool) {
	res := mc.ctrCache.Access(addr, dirty)
	if res.Evicted && res.Writeback {
		mc.writebackCounterBlock(res.VictimAddr, out)
	}
	if !res.Hit {
		out.Extra = append(out.Extra, Traffic{Addr: addr, Write: false, Kind: dram.KindCounter})
	}
	return res.Hit
}

// writebackCounterBlock writes a dirty metadata block to DRAM and bumps its
// parent counter (the block's own write counter lives one level up). A line
// whose address maps to no metadata block — a corrupted tag — is dropped
// without a DRAM write or parent update, and the corruption is recorded as
// a typed violation on the current access's Outcome.
func (mc *MC) writebackCounterBlock(addr uint64, out *Outcome) {
	level, idx, ok := mc.store.ClassifyAddr(addr)
	if !ok {
		mc.stats.MetadataCorruptions++
		mc.recordViolation(&IntegrityError{
			Kind: ViolationMetadataAddr, Addr: addr, Block: -1, Recovered: true,
			Detail: "line dropped without writeback or parent update",
		})
		return
	}
	out.Extra = append(out.Extra, Traffic{Addr: addr, Write: true, Kind: dram.KindCounter})
	mc.bumpTreeCounter(level+1, idx, out)
}

// bumpTreeCounter advances the counter at tree level l protecting child
// block/node childIdx. Level l beyond the stored tree is the on-chip root:
// its counters update for free, ending the cascade.
func (mc *MC) bumpTreeCounter(l, childIdx int, out *Outcome) {
	if l > mc.store.Levels() {
		return // root counters live on-chip
	}
	// The parent node must be resident (and becomes dirty) to update it.
	node := mc.store.NodeIndex(childIdx)
	parentAddr := mc.store.NodeAddr(l, node)
	mc.ensureCounterBlock(parentAddr, true, out)

	// Tree-counter ceiling: a node with a counter at the 56-bit limit can
	// neither advance it nor relevel above it (the same test the data path
	// applies to the L0 group); defer the whole-memory re-key to the end of
	// the current access (the cache walk in flight must not be yanked
	// mid-way).
	if mc.store.GroupMax(l, node) >= counter.MaxCounter {
		mc.stats.CounterOverflows++
		mc.recordViolation(&IntegrityError{
			Kind: ViolationCounterOverflow, Addr: parentAddr, Block: -1, Recovered: true,
			Detail: "tree counter at the 56-bit ceiling; re-key deferred to end of access",
		})
		mc.needRekey = true
		return
	}

	// The L1 table memoizes level-1 counters (nil outside RMCC mode); no
	// table covers the levels above.
	var tbl *core.Table
	if l == 1 {
		tbl = mc.l1Table
	}
	switch s, rewritten := mc.advance(l, childIdx, tbl, out); s {
	case stepJump:
		mc.stats.TreeJumps++
	case stepOverflow:
		mc.stats.BaselineOverflows++
	case stepRelevel:
		mc.stats.TreeJumps++
		mc.stats.OverheadL1Blocks += 2 * uint64(rewritten)
	}
}

// walkChain performs the counter-chain lookup for a data access whose L0
// counter block is l0Idx. It returns the chain of fetches needed (empty
// when the L0 block is cached) plus whether the L1 level was covered
// (cache hit or memoized) for the Accelerated computation, recording chain
// stats.
func (mc *MC) walkChain(l0Idx int, dirty bool, isRead bool, out *Outcome) (chain []ChainFetch, l0Hit, l1Covered bool) {
	l0Addr := mc.store.NodeAddr(0, l0Idx)
	l0Hit = mc.ensureCounterBlock(l0Addr, dirty, out)
	if l0Hit {
		return nil, true, true
	}
	mc.stats.ChainFetches[0]++
	chain = append(mc.scratchChain[:0], ChainFetch{Addr: l0Addr, Level: 0})

	// Walk up: to verify the fetched level-(l-1) block we need its counter
	// at level l. A cache hit ends the walk; the walk reads the node, and
	// verification does not dirty it.
	childIdx := l0Idx
	l1Covered = true
	for l := 1; l <= mc.store.Levels(); l++ {
		nodeAddr := mc.store.NodeAddr(l, mc.store.NodeIndex(childIdx))
		if mc.ensureCounterBlock(nodeAddr, false, out) {
			break
		}
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
				val := mc.store.Counter(1, l0Idx)
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
		childIdx = mc.store.NodeIndex(childIdx)
	}
	mc.scratchChain = chain
	return chain, false, l1Covered
}
