package sim

import (
	"fmt"
	"io"

	"rmcc/internal/mem/cache"
	"rmcc/internal/snapshot"
)

// lifetimeKind tags whole-stepper snapshots: caches, TLBs, page mapper,
// engine, and the access cursor.
const lifetimeKind = "rmcc-lifetime"

// ConfigHash hashes everything that determines the stepper's state layout
// and its deterministic evolution: workload name, cache/TLB/page geometry,
// engine configuration, seed, and the derived physical memory size. The
// Tracer is excluded — it shapes what is observed, not the state itself.
func (lt *Lifetime) ConfigHash() uint64 {
	c := lt.cfg
	return snapshot.HashString(fmt.Sprintf("%s|%#v|%#v|%#v|%d|%d|%#v|%d|%d",
		lt.name, c.L1, c.L2, c.LLC, c.TLBEntries, c.PageBytes, c.Engine, c.Seed,
		lt.mapper.PhysBytes()))
}

// Save writes the stepper's complete state — the access cursor, cache and
// TLB contents, page table, and the full engine image — as one snapshot
// stream. Together with the workload's determinism, this is everything a
// fresh stepper needs to continue the run bit-identically: the workload
// cursor is the access count, since the access stream is a pure function of
// (workload, seed).
func (lt *Lifetime) Save(w io.Writer) error {
	sw := snapshot.NewWriter(w, lifetimeKind, lt.ConfigHash())
	var e snapshot.Enc
	e.String(lt.name)
	e.U64(lt.accesses)
	e.U64(lt.reads)
	e.U64(lt.writes)
	sw.Section("cursor", e.Data())
	for _, part := range []struct {
		tag string
		enc interface{ EncodeState(*snapshot.Enc) }
	}{
		{"l1", lt.h.l1},
		{"l2", lt.h.l2},
		{"llc", lt.h.llc},
		{"tlb4k", lt.tlb4k},
		{"tlb2m", lt.tlb2m},
		{"vm", lt.mapper},
		{"engine", lt.mc},
	} {
		e.Reset()
		part.enc.EncodeState(&e)
		sw.Section(part.tag, e.Data())
	}
	return sw.Close()
}

// Load restores state written by Save into a stepper built with the
// identical name, footprint, and configuration. On error the stepper is
// left in an undefined state and must be discarded; errors are typed
// (snapshot.ErrSnapshot*). Beyond what each part's decoder checks, it
// refuses a data-cache line at or past the end of physical memory, which
// no run produces and whose eviction would write outside it.
func (lt *Lifetime) Load(r io.Reader) error {
	sr, err := snapshot.NewReader(r, lifetimeKind)
	if err != nil {
		return err
	}
	if got, want := sr.ConfigHash(), lt.ConfigHash(); got != want {
		return fmt.Errorf("%w: lifetime config hash %016x, want %016x",
			snapshot.ErrSnapshotConfigMismatch, got, want)
	}
	payload, err := sr.Section("cursor")
	if err != nil {
		return err
	}
	d := snapshot.NewDec(payload)
	name := d.String()
	accesses := d.U64()
	reads := d.U64()
	writes := d.U64()
	if err := d.Finish(); err != nil {
		return err
	}
	if name != lt.name {
		return fmt.Errorf("%w: snapshot workload %q, want %q",
			snapshot.ErrSnapshotConfigMismatch, name, lt.name)
	}
	for _, part := range []struct {
		tag string
		dec interface{ DecodeState(*snapshot.Dec) error }
	}{
		{"l1", lt.h.l1},
		{"l2", lt.h.l2},
		{"llc", lt.h.llc},
		{"tlb4k", lt.tlb4k},
		{"tlb2m", lt.tlb2m},
		{"vm", lt.mapper},
		{"engine", lt.mc},
	} {
		payload, err := sr.Section(part.tag)
		if err != nil {
			return err
		}
		d := snapshot.NewDec(payload)
		if err := part.dec.DecodeState(d); err != nil {
			return fmt.Errorf("section %q: %w", part.tag, err)
		}
		if err := d.Finish(); err != nil {
			return fmt.Errorf("section %q: %w", part.tag, err)
		}
	}
	for _, part := range []struct {
		tag string
		c   *cache.Cache
	}{{"l1", lt.h.l1}, {"l2", lt.h.l2}, {"llc", lt.h.llc}} {
		if top, ok := part.c.MaxLineAddr(); ok && top >= lt.mapper.PhysBytes() {
			return fmt.Errorf("section %q: %w: line %#x beyond %d bytes of physical memory",
				part.tag, snapshot.ErrSnapshotCorrupt, top, lt.mapper.PhysBytes())
		}
	}
	if err := sr.Close(); err != nil {
		return err
	}
	lt.accesses = accesses
	lt.reads = reads
	lt.writes = writes
	return nil
}
