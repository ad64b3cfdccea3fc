package engine

import (
	"fmt"
	"sort"

	"rmcc/internal/snapshot"
)

// EncodeState serializes the controller into one section payload, which
// sim.Lifetime's snapshot embeds. Call it between accesses: in-flight
// violation state is not serialized.
func (mc *MC) EncodeState(e *snapshot.Enc) {
	e.U64(mc.keyEpoch)
	e.Binary(&mc.stats)
	e.Bool(mc.store != nil)
	if mc.store == nil { // NonSecure: nothing else to carry
		return
	}
	mc.store.EncodeState(e)
	mc.ctrCache.EncodeState(e)
	e.Bool(mc.l0Table != nil)
	if mc.l0Table != nil {
		mc.l0Table.EncodeState(e)
		mc.l1Table.EncodeState(e)
	}
	e.Bool(mc.contents != nil)
	if mc.contents != nil {
		mc.contents.encodeState(e)
	}
}

// DecodeState restores an EncodeState payload into a controller of the
// identical configuration. Every failure is a typed snapshot error
// (snapshot.ErrSnapshot*), after which the controller must be discarded.
// The key epoch is applied first and the OTP unit re-derived from it, so
// the memoization tables' fill-based reconstruction and the contents image
// operate under the snapshot's keys rather than the boot keys.
func (mc *MC) DecodeState(d *snapshot.Dec) error {
	mc.pending = nil
	mc.needRekey = false
	epoch := d.U64()
	d.Binary(&mc.stats)
	hasStore := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hasStore != (mc.store != nil) {
		return fmt.Errorf("%w: snapshot secure=%v, controller secure=%v",
			snapshot.ErrSnapshotConfigMismatch, hasStore, mc.store != nil)
	}
	mc.keyEpoch = epoch
	if !hasStore {
		return nil
	}
	mc.unit = mc.deriveUnit()
	if err := mc.store.DecodeState(d); err != nil {
		return err
	}
	if err := mc.ctrCache.DecodeState(d); err != nil {
		return err
	}
	hasTables := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hasTables != (mc.l0Table != nil) {
		return fmt.Errorf("%w: snapshot memoization=%v, controller memoization=%v",
			snapshot.ErrSnapshotConfigMismatch, hasTables, mc.l0Table != nil)
	}
	if hasTables {
		if err := mc.l0Table.DecodeState(d); err != nil {
			return err
		}
		if err := mc.l1Table.DecodeState(d); err != nil {
			return err
		}
	}
	hasContents := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hasContents != (mc.contents != nil) {
		return fmt.Errorf("%w: snapshot contents=%v, controller contents=%v",
			snapshot.ErrSnapshotConfigMismatch, hasContents, mc.contents != nil)
	}
	if hasContents {
		mc.contents.unit = mc.unit
		if err := mc.contents.decodeState(d); err != nil {
			return err
		}
	}
	return d.Err()
}

// encodeState serializes the functional memory image. Maps are emitted in
// sorted key order: snapshot bytes must be a pure function of state, not of
// map iteration order (the property test compares them byte for byte).
func (cs *contentStore) encodeState(e *snapshot.Enc) {
	encodeBlocks := func(m map[int][8]uint64) {
		keys := sortedKeys(m)
		e.U64(uint64(len(keys)))
		for _, k := range keys {
			e.I64(int64(k))
			b := m[k]
			for _, w := range b {
				e.U64(w)
			}
		}
	}
	encodeBlocks(cs.plain)
	encodeBlocks(cs.cipher)
	encodeU64Map(e, cs.macs)
	encodeU64Map(e, cs.version)
	keys := sortedKeys(cs.transient)
	e.U64(uint64(len(keys)))
	for _, k := range keys {
		e.I64(int64(k))
		e.I64(int64(cs.transient[k]))
	}
	keys = sortedKeys(cs.dropNext)
	e.U64(uint64(len(keys)))
	for _, k := range keys {
		e.I64(int64(k))
	}
}

func (cs *contentStore) decodeState(d *snapshot.Dec) error {
	decodeBlocks := func() map[int][8]uint64 {
		n := d.U64()
		if d.Err() != nil || n > uint64(d.Remaining()/72) { // 8B key + 64B block
			d.Failf("contents block map length %d", n)
			return nil
		}
		m := make(map[int][8]uint64, n)
		for i := uint64(0); i < n; i++ {
			k := int(d.I64())
			var b [8]uint64
			for w := range b {
				b[w] = d.U64()
			}
			m[k] = b
		}
		return m
	}
	plain := decodeBlocks()
	cipher := decodeBlocks()
	macs := decodeU64Map(d)
	version := decodeU64Map(d)
	nt := d.U64()
	if d.Err() != nil || nt > uint64(d.Remaining()/16) {
		return d.Failf("contents transient map length %d", nt)
	}
	transient := make(map[int]int, nt)
	for i := uint64(0); i < nt; i++ {
		k := int(d.I64())
		transient[k] = int(d.I64())
	}
	nd := d.U64()
	if d.Err() != nil || nd > uint64(d.Remaining()/8) {
		return d.Failf("contents dropNext set length %d", nd)
	}
	dropNext := make(map[int]bool, nd)
	for i := uint64(0); i < nd; i++ {
		dropNext[int(d.I64())] = true
	}
	if err := d.Err(); err != nil {
		return err
	}
	cs.plain = plain
	cs.cipher = cipher
	cs.macs = macs
	cs.version = version
	cs.transient = transient
	cs.dropNext = dropNext
	return nil
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func encodeU64Map(e *snapshot.Enc, m map[int]uint64) {
	keys := sortedKeys(m)
	e.U64(uint64(len(keys)))
	for _, k := range keys {
		e.I64(int64(k))
		e.U64(m[k])
	}
}

func decodeU64Map(d *snapshot.Dec) map[int]uint64 {
	n := d.U64()
	if d.Err() != nil || n > uint64(d.Remaining()/16) {
		d.Failf("contents uint64 map length %d", n)
		return nil
	}
	m := make(map[int]uint64, n)
	for i := uint64(0); i < n; i++ {
		k := int(d.I64())
		m[k] = d.U64()
	}
	return m
}
