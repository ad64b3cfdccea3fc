package sim_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rmcc/internal/mem/cache"
	"rmcc/internal/rng"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sim"
	"rmcc/internal/snapshot"
	"rmcc/internal/workload"
)

// stepTo pulls accesses from a fresh deterministic stream, discarding the
// first skip (the restored stepper's cursor) and stepping the rest until
// the stepper reaches target accesses.
func stepTo(t *testing.T, lt *sim.Lifetime, w workload.Workload, seed, skip, target uint64) {
	t.Helper()
	st := sim.NewAccessStream(func(sink workload.Sink) { w.Run(seed, sink) })
	defer st.Close()
	for i := uint64(0); i < skip; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatal("stream exhausted during skip")
		}
	}
	for lt.Accesses() < target {
		a, ok := st.Next()
		if !ok {
			t.Fatal("stream exhausted")
		}
		lt.Step(a)
	}
}

// TestSnapshotResumeBitIdentical is the tentpole property test: for every
// mode × counter scheme, run a lifetime to a random access N, snapshot,
// restore into a fresh stepper, and require the resumed run's results AND
// its own re-snapshot to be bit-identical to an uninterrupted run.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	type combo struct {
		mode   engine.Mode
		scheme counter.Scheme
	}
	combos := []combo{
		{engine.NonSecure, counter.SGX},
		{engine.Baseline, counter.SGX},
		{engine.Baseline, counter.SC64},
		{engine.Baseline, counter.Morphable},
		{engine.RMCC, counter.SGX},
		{engine.RMCC, counter.SC64},
		{engine.RMCC, counter.Morphable},
	}
	const target = 9000
	r := rng.New(0x5a47)
	for _, c := range combos {
		c := c
		cut := 1 + r.Uint64n(target-2) // random snapshot point in (0, target)
		t.Run(fmt.Sprintf("%v-%v", c.mode, c.scheme), func(t *testing.T) {
			t.Parallel()
			w, ok := workload.ByName(workload.SizeTest, 7, "canneal")
			if !ok {
				t.Fatal("no canneal workload")
			}
			cfg := sim.DefaultLifetimeConfig(engine.DefaultConfig(c.mode, c.scheme, 0))
			cfg.Seed = 7

			newLT := func() *sim.Lifetime {
				lt, err := sim.NewLifetimeChecked(w.Name(), w.FootprintBytes(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return lt
			}

			// Uninterrupted run.
			ltA := newLT()
			stepTo(t, ltA, w, cfg.Seed, 0, target)
			resA := ltA.Result()
			var saveA bytes.Buffer
			if err := ltA.Save(&saveA); err != nil {
				t.Fatal(err)
			}

			// Interrupted run: stop at cut, snapshot, restore into a fresh
			// stepper, finish.
			ltB := newLT()
			stepTo(t, ltB, w, cfg.Seed, 0, cut)
			var mid bytes.Buffer
			if err := ltB.Save(&mid); err != nil {
				t.Fatal(err)
			}
			ltC := newLT()
			if err := ltC.Load(bytes.NewReader(mid.Bytes())); err != nil {
				t.Fatal(err)
			}
			if ltC.Accesses() != cut {
				t.Fatalf("restored cursor %d, want %d", ltC.Accesses(), cut)
			}
			stepTo(t, ltC, w, cfg.Seed, cut, target)
			resC := ltC.Result()

			if !reflect.DeepEqual(resA, resC) {
				t.Errorf("cut=%d: resumed result differs from uninterrupted run:\nA: %+v\nC: %+v",
					cut, resA, resC)
			}
			var saveC bytes.Buffer
			if err := ltC.Save(&saveC); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saveA.Bytes(), saveC.Bytes()) {
				t.Errorf("cut=%d: resumed snapshot bytes differ from uninterrupted run's", cut)
			}
		})
	}
}

// TestSnapshotResumeTrackContents exercises the functional-memory image
// path (plain/cipher/MAC maps) through a snapshot boundary.
func TestSnapshotResumeTrackContents(t *testing.T) {
	w, ok := workload.ByName(workload.SizeTest, 3, "stream")
	if !ok {
		// Fall back: any workload works for this property.
		w, _ = workload.ByName(workload.SizeTest, 3, "canneal")
	}
	eng := engine.DefaultConfig(engine.RMCC, counter.Morphable, 0)
	eng.TrackContents = true
	cfg := sim.DefaultLifetimeConfig(eng)
	cfg.Seed = 3
	const cut, target = 1500, 4000

	ltA, err := sim.NewLifetimeChecked(w.Name(), w.FootprintBytes(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepTo(t, ltA, w, cfg.Seed, 0, target)
	resA := ltA.Result()
	if resA.Engine.IntegrityFailures != 0 || resA.Engine.DecryptMismatches != 0 {
		t.Fatalf("uninterrupted run not clean: %+v", resA.Engine)
	}

	ltB, err := sim.NewLifetimeChecked(w.Name(), w.FootprintBytes(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepTo(t, ltB, w, cfg.Seed, 0, cut)
	var mid bytes.Buffer
	if err := ltB.Save(&mid); err != nil {
		t.Fatal(err)
	}
	ltC, err := sim.NewLifetimeChecked(w.Name(), w.FootprintBytes(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ltC.Load(bytes.NewReader(mid.Bytes())); err != nil {
		t.Fatal(err)
	}
	stepTo(t, ltC, w, cfg.Seed, cut, target)
	resC := ltC.Result()
	if !reflect.DeepEqual(resA, resC) {
		t.Errorf("TrackContents resume differs:\nA: %+v\nC: %+v", resA, resC)
	}
	if resC.Engine.IntegrityFailures != 0 || resC.Engine.DecryptMismatches != 0 {
		t.Errorf("resumed run failed verification: %+v", resC.Engine)
	}
}

// TestLifetimeLoadTypedErrors pins the error taxonomy at the sim layer.
func TestLifetimeLoadTypedErrors(t *testing.T) {
	w, _ := workload.ByName(workload.SizeTest, 1, "canneal")
	cfg := sim.DefaultLifetimeConfig(engine.DefaultConfig(engine.RMCC, counter.SGX, 0))
	lt, err := sim.NewLifetimeChecked(w.Name(), w.FootprintBytes(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	fresh := func() *sim.Lifetime {
		lt, err := sim.NewLifetimeChecked(w.Name(), w.FootprintBytes(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return lt
	}

	// Truncation → corrupt.
	if err := fresh().Load(bytes.NewReader(valid[:len(valid)/2])); !errors.Is(err, snapshot.ErrSnapshotCorrupt) {
		t.Errorf("truncated: %v", err)
	}
	// Version flip → version error.
	bad := append([]byte(nil), valid...)
	bad[8] = 0x7f
	if err := fresh().Load(bytes.NewReader(bad)); !errors.Is(err, snapshot.ErrSnapshotVersion) {
		t.Errorf("version: %v", err)
	}
	// Different engine config → config mismatch.
	cfg2 := cfg
	cfg2.Engine = engine.DefaultConfig(engine.Baseline, counter.SC64, 0)
	lt2, err := sim.NewLifetimeChecked(w.Name(), w.FootprintBytes(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := lt2.Load(bytes.NewReader(valid)); !errors.Is(err, snapshot.ErrSnapshotConfigMismatch) {
		t.Errorf("config mismatch: %v", err)
	}
	// The valid bytes load cleanly into a matching fresh stepper.
	if err := fresh().Load(bytes.NewReader(valid)); err != nil {
		t.Errorf("valid load: %v", err)
	}
}

// reseal returns the lifetime snapshot data with section tag's payload
// replaced, every section sealed under a fresh CRC as Save seals it.
func reseal(t *testing.T, data []byte, tag string, payload []byte) []byte {
	t.Helper()
	sr, err := snapshot.NewReader(bytes.NewReader(data), "rmcc-lifetime")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sw := snapshot.NewWriter(&out, "rmcc-lifetime", sr.ConfigHash())
	for _, s := range []string{"cursor", "l1", "l2", "llc", "tlb4k", "tlb2m", "vm", "engine"} {
		p, err := sr.Section(s)
		if err != nil {
			t.Fatal(err)
		}
		if s == tag {
			p = payload
		}
		sw.Section(s, p)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestLoadRefusesAddressesOutsidePhysicalMemory: a checkpoint whose page
// table or data caches point past the end of physical memory is refused
// as corrupt, though each section is well formed and sealed, instead of
// loading and panicking a later step. A line just below the end loads.
func TestLoadRefusesAddressesOutsidePhysicalMemory(t *testing.T) {
	// 1 MiB of footprint gets 18 MiB of physical memory: nine 2 MiB pages.
	const phys = 18 << 20
	cfg := sim.DefaultLifetimeConfig(engine.DefaultConfig(engine.RMCC, counter.Morphable, 0))
	fresh := func() *sim.Lifetime {
		lt, err := sim.NewLifetimeChecked("doctored", 1<<20, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return lt
	}
	lt := fresh()
	if err := lt.Step(workload.Access{Addr: 2 << 21}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if err := fresh().Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid checkpoint: %v", err)
	}

	var e snapshot.Enc
	e.U64(1) // allocation cursor
	e.U64(1) // table length
	e.U64(2) // vpage
	e.U64(1 << 30)
	if err := fresh().Load(bytes.NewReader(reseal(t, valid, "vm", e.Data()))); !errors.Is(err, snapshot.ErrSnapshotCorrupt) {
		t.Errorf("vpage 2 mapped to ppage 2^30: err = %v, want ErrSnapshotCorrupt", err)
	}

	// A dirty line at addr, in an LLC that holds nothing else.
	llcWith := func(addr uint64) []byte {
		c := cache.New(cfg.LLC)
		c.Access(addr, true)
		var e snapshot.Enc
		c.EncodeState(&e)
		return e.Data()
	}
	for _, tc := range []struct {
		addr uint64
		ok   bool
	}{{phys - 64, true}, {phys, false}, {1 << 50, false}} {
		err := fresh().Load(bytes.NewReader(reseal(t, valid, "llc", llcWith(tc.addr))))
		if tc.ok && err != nil || !tc.ok && !errors.Is(err, snapshot.ErrSnapshotCorrupt) {
			t.Errorf("dirty LLC line at %#x: err = %v, want refused %v", tc.addr, err, !tc.ok)
		}
	}
}

// TestSaveBytesPinned pins the SHA-256 of a snapshot cut after a fixed
// canneal stream that fills, dirties and evicts every cache level, so
// checkpoints stay byte-identical across builds of one
// snapshot.FormatVersion. A change that moves these bytes changes what
// checkpoints of that version mean: it must bump FormatVersion, which
// makes readers refuse the older checkpoints, and re-pin the digest.
func TestSaveBytesPinned(t *testing.T) {
	const want = "ba9496cbfa58ac1b3d573c2519fb940029205cdd00439f0727f6a26c362f7f7d"
	w, ok := workload.ByName(workload.SizeSmall, 7, "canneal")
	if !ok {
		t.Fatal("no canneal workload")
	}
	cfg := sim.DefaultLifetimeConfig(engine.DefaultConfig(engine.RMCC, counter.Morphable, 0))
	cfg.Seed = 7
	lt, err := sim.NewLifetimeChecked(w.Name(), w.FootprintBytes(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepTo(t, lt, w, cfg.Seed, 0, 100_000)
	var buf bytes.Buffer
	if err := lt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("Save after 100 000 canneal accesses: sha256 %s, want %s", got, want)
	}
}
