package engine

import (
	"fmt"

	"rmcc/internal/mem/dram"
	"rmcc/internal/obs"
	"rmcc/internal/secmem/counter"
)

// This file holds the controller's fault-injection surface and the two
// architectural recovery events — power loss and the whole-memory re-key
// ("reboot") — that the internal/fault campaign driver exercises. Injection
// methods corrupt state the way a physical attack or hardware fault would;
// they never touch the detection machinery itself, so every detection seen
// in a campaign is earned by the real verification paths. The one exception
// is PoisonMemoEntry: it also marks its table poisoned, which turns on the
// per-hit AES cross-check (a clean table skips it). The detection itself is
// still earned by that comparison.

// TamperMAC flips bits in block i's stored MAC, simulating corruption of
// the MAC co-located with the ciphertext. The next read of the block must
// fail its MAC check. Requires TrackContents.
func (mc *MC) TamperMAC(i int) error {
	if mc.contents == nil {
		return ErrContentsDisabled
	}
	if _, ok := mc.contents.macs[i]; !ok {
		mc.contents.reencrypt(i, mc.store.Counter(0, i), mc.store.DataBlockAddr(i))
	}
	// Odd-constant addition rather than XOR: repeated tampering never
	// round-trips back to the original MAC.
	mc.contents.macs[i] += 0xdead
	return nil
}

// TamperTransient arms a transient (bus) fault on block i: the next reads
// of the block fail verification, after which the fault clears — the case
// the RetryRefetch policy exists for. Requires TrackContents.
func (mc *MC) TamperTransient(i int, reads int) error {
	if mc.contents == nil {
		return ErrContentsDisabled
	}
	if reads > 0 {
		mc.contents.transient[i] += reads
	}
	return nil
}

// CorruptCounter overwrites level-l counter i without re-sealing or
// re-MACing what it protects: the DRAM counter bits flipped. At level 0,
// data block i's ciphertext stayed sealed under the old value, so the next
// read decrypts garbage and fails its MAC check. Above, it is
// integrity-tree metadata corruption of the counter protecting child i,
// which the checker's regression scan must flag; a node it leaves
// unencodable relevels above its maximum on its next update.
func (mc *MC) CorruptCounter(l, i int, v uint64) {
	if mc.store != nil && l >= 0 && l <= mc.store.Levels() {
		mc.store.Corrupt(l, i, v)
	}
}

// PoisonMemoEntry corrupts the memoized AES results for value in the L0
// table (an SRAM upset in the memoization array). Reports whether the
// value was live. A successful poisoning marks the table, arming the
// per-hit AES cross-check in Read until a power loss, re-key, or snapshot
// load replaces the table's entries; detection happens on the next lookup
// that serves the entry.
func (mc *MC) PoisonMemoEntry(value uint64) bool {
	if mc.l0Table == nil {
		return false
	}
	return mc.l0Table.Poison(value)
}

// PoisonCounterCache inserts a dirty line with an arbitrary (typically
// non-metadata) address into the counter cache — a corrupted tag. The
// corruption is detected when the line is written back (naturally, or via
// EvictCounterLine) and its address classifies to no metadata block. Any
// legitimate dirty victim displaced by the insertion is written back
// normally.
func (mc *MC) PoisonCounterCache(addr uint64) {
	if mc.ctrCache == nil {
		return
	}
	var out Outcome
	res := mc.ctrCache.Access(addr, true)
	if res.Evicted && res.Writeback {
		mc.writebackCounterBlock(res.VictimAddr, &out)
	}
	mc.addTraffic(&out)
}

// EvictCounterLine force-evicts addr from the counter cache (a scrub),
// writing it back if dirty — the deterministic way to surface a poisoned
// line. Violations it detects appear on the next access's Outcome.
func (mc *MC) EvictCounterLine(addr uint64) {
	if mc.ctrCache == nil {
		return
	}
	present, dirty := mc.ctrCache.Invalidate(addr)
	if !present || !dirty {
		return
	}
	var out Outcome
	mc.writebackCounterBlock(addr, &out)
	mc.addTraffic(&out)
}

// DropNextWriteback arms a dropped-writeback fault on block i: the next
// write to the block updates its counter and logical contents but the DRAM
// image is never written (a lost write). The following read must fail
// verification. Requires TrackContents.
func (mc *MC) DropNextWriteback(i int) error {
	if mc.contents == nil {
		return ErrContentsDisabled
	}
	// Materialize the current DRAM image now so the stale copy (sealed
	// under the pre-write counter) is what the post-write read fetches.
	if _, ok := mc.contents.cipher[i]; !ok {
		mc.contents.reencrypt(i, mc.store.Counter(0, i), mc.store.DataBlockAddr(i))
	}
	mc.contents.dropNext[i] = true
	mc.stats.DroppedWritebacks++
	return nil
}

// DuplicateWriteback re-issues block i's last DRAM write (a duplicated
// writeback). Writes are idempotent at this layer, so this must NOT cause
// a violation — it exists as the campaign's false-positive control.
// Requires TrackContents.
func (mc *MC) DuplicateWriteback(i int) error {
	if mc.contents == nil {
		return ErrContentsDisabled
	}
	if _, ok := mc.contents.cipher[i]; !ok {
		mc.contents.reencrypt(i, mc.store.Counter(0, i), mc.store.DataBlockAddr(i))
	}
	// Re-seal the identical plaintext under the identical counter: the
	// DRAM image is rewritten with the same bytes.
	mc.contents.reencrypt(i, mc.store.Counter(0, i), mc.store.DataBlockAddr(i))
	mc.stats.DuplicatedWritebacks++
	mc.stats.TrafficBlocks[dram.KindData]++
	return nil
}

// PowerLoss models a mid-run power cut: all volatile MC state — the
// counter cache and both memoization tables — is lost and comes back cold.
// Counters and memory contents persist (the model assumes write-through
// counter persistence, e.g. ADR-style flush-on-power-fail), so the system
// must resume with correct decryptions; only performance state is lost.
func (mc *MC) PowerLoss() {
	mc.stats.PowerLosses++
	if mc.cfg.Mode == NonSecure {
		return
	}
	mc.ctrCache = mc.newCounterCache()
	if mc.cfg.Mode == RMCC {
		mc.buildTables()
	}
	mc.pending = nil
	mc.needRekey = false
}

// ForceCounterCeiling raises the whole counter group of the block at addr
// to the architectural 56-bit ceiling (re-encrypting the covered blocks),
// so the next write to the group must trigger the re-key/reboot — the
// counter-exhaustion drill.
func (mc *MC) ForceCounterCeiling(addr uint64) error {
	if mc.store == nil {
		return fmt.Errorf("%w: non-secure mode has no counters", ErrInvalidConfig)
	}
	i := mc.store.DataBlockIndex(addr)
	if mc.store.Counter(0, i) >= counter.MaxCounter {
		return nil
	}
	start, end := mc.store.Relevel(0, i, counter.MaxCounter)
	if mc.contents != nil {
		for b := start; b < end; b++ {
			mc.contents.reencrypt(b, counter.MaxCounter, mc.store.DataBlockAddr(b))
		}
	}
	return nil
}

// Rekey forces the whole-memory re-key/reboot immediately (§VII): fresh
// keys, all counters reset, the observed-max registers and memoization
// tables cleared, every block re-encrypted. Returns an Outcome carrying the
// re-key marker and its traffic accounting.
func (mc *MC) Rekey() Outcome {
	var out Outcome
	if mc.cfg.Mode == NonSecure {
		return out
	}
	mc.rekey(&out)
	out.Violations = mc.pending
	mc.pending = nil
	return out
}

// rekey executes the re-key/reboot in place: new key epoch, counters and
// their observed-max registers zeroed, counter cache and memoization tables
// cold, and — in the functional image — every tracked block re-sealed
// under the new keys. The traffic cost (read + rewrite of every data
// block) is charged to the KindOther category and RekeyBlocks.
func (mc *MC) rekey(out *Outcome) {
	mc.stats.Rekeys++
	mc.keyEpoch++
	mc.unit = mc.deriveUnit()
	mc.store.ResetCounters()
	mc.ctrCache = mc.newCounterCache()
	if mc.cfg.Mode == RMCC {
		mc.buildTables()
	}
	if mc.contents != nil {
		mc.contents.rekey(mc.unit, mc.store)
	}
	n := uint64(mc.store.NumDataBlocks())
	mc.stats.RekeyBlocks += 2 * n
	mc.stats.TrafficBlocks[dram.KindOther] += 2 * n
	mc.needRekey = false
	mc.trace.Emit(obs.EvRekey, 0, mc.keyEpoch, 0)
	out.Rekeyed = true
}

// finish completes a Read or Write: it adds up the access's traffic,
// executes any deferred re-key, drains the pending violations onto the
// Outcome, and keeps Extra's storage for the next access.
func (mc *MC) finish(out *Outcome) {
	mc.addTraffic(out)
	if mc.needRekey {
		mc.rekey(out)
	}
	if len(mc.pending) > 0 {
		out.Violations = append(out.Violations, mc.pending...)
		mc.pending = nil
	}
	mc.scratchExtra = out.Extra
}
