package engine

import (
	"bytes"
	"errors"
	"testing"

	"rmcc/internal/secmem/counter"
	"rmcc/internal/snapshot"
)

// tinyConfig keeps fuzz/test controllers cheap to build (1024 data blocks).
func tinyConfig() Config {
	cfg := DefaultConfig(RMCC, counter.SGX, 1<<16)
	cfg.CounterCacheBytes = 8 << 10
	cfg.CounterCacheWays = 8
	cfg.TrackContents = true
	return cfg
}

// warmTinyMC builds a small controller with n accesses of traffic, so
// every state structure (counters, cache lines, memo tables, contents
// image) is non-trivial.
func warmTinyMC(n int) *MC {
	mc := New(tinyConfig())
	for i := 0; i < n; i++ {
		addr := uint64(i%1024) * 64
		if i%3 == 0 {
			mc.Write(addr)
		} else {
			mc.Read(addr)
		}
		mc.OnEpochAccess()
	}
	return mc
}

// encodeMC returns the controller's EncodeState payload.
func encodeMC(mc *MC) []byte {
	var e snapshot.Enc
	mc.EncodeState(&e)
	return e.Data()
}

// decodeMC restores payload into mc, which must consume it whole.
func decodeMC(mc *MC, payload []byte) error {
	d := snapshot.NewDec(payload)
	if err := mc.DecodeState(d); err != nil {
		return err
	}
	return d.Finish()
}

func TestEngineSaveLoadRoundTrip(t *testing.T) {
	mc := warmTinyMC(600)
	mc2 := New(tinyConfig())
	if err := decodeMC(mc2, encodeMC(mc)); err != nil {
		t.Fatal(err)
	}
	if mc2.Stats() != mc.Stats() {
		t.Fatalf("stats differ after restore:\n%+v\n%+v", mc2.Stats(), mc.Stats())
	}
	// Continued identical traffic must produce identical state: drive both
	// and compare re-encoded bytes.
	for i := 0; i < 300; i++ {
		addr := uint64((i*7)%1024) * 64
		mc.Write(addr)
		mc.OnEpochAccess()
		mc2.Write(addr)
		mc2.OnEpochAccess()
	}
	if !bytes.Equal(encodeMC(mc), encodeMC(mc2)) {
		t.Fatal("restored controller diverged from original under identical traffic")
	}
}

// TestEngineLoadConfigMismatch: a payload restored into a controller of
// another configuration fails typed. The counter geometry tells schemes
// apart (a corrupt payload for this controller); the secure and
// memoization flags name a mismatched configuration.
func TestEngineLoadConfigMismatch(t *testing.T) {
	payload := encodeMC(warmTinyMC(600))
	other := tinyConfig()
	other.Scheme = counter.Morphable
	if err := decodeMC(New(other), payload); !errors.Is(err, snapshot.ErrSnapshotCorrupt) {
		t.Fatalf("scheme mismatch: %v", err)
	}
	other = tinyConfig()
	other.Mode = Baseline
	if err := decodeMC(New(other), payload); !errors.Is(err, snapshot.ErrSnapshotConfigMismatch) {
		t.Fatalf("memoization mismatch: %v", err)
	}
	nonSec := DefaultConfig(NonSecure, counter.SGX, 1<<16)
	if err := decodeMC(New(nonSec), payload); !errors.Is(err, snapshot.ErrSnapshotConfigMismatch) {
		t.Fatalf("mode mismatch: %v", err)
	}
}

// FuzzDecodeState feeds mutated EncodeState payloads straight to
// MC.DecodeState, as a restore blob with valid section CRCs reaches it:
// every outcome must be nil or one of the three typed snapshot errors —
// never a panic, never an untyped error (rmccd's restore and recovery
// paths classify on exactly these). The seeds include counters at the top
// of the uint64 range, which no encoded group holds. A short warm-up
// keeps the contents image, and so each input, small.
func FuzzDecodeState(f *testing.F) {
	mc := warmTinyMC(64)
	vb := encodeMC(mc)
	var e snapshot.Enc
	mc.Store().EncodeState(&e)
	store := bytes.Index(vb, e.Data())
	if store < 0 {
		f.Fatal("counter store payload not found in the engine payload")
	}
	// The store opens with the data counters, then the tree level count
	// and the first tree level's length.
	firstData := store + 8
	firstTree := firstData + 8*mc.Store().NumDataBlocks() + 16
	f.Add(vb)
	f.Add([]byte{})
	f.Add(vb[:16])
	f.Add(vb[:len(vb)/2])
	for _, off := range []int{0, 8, store - 1, store, firstData, firstTree, len(vb) / 2, len(vb) - 2} {
		mut := append([]byte(nil), vb...)
		mut[off] ^= 0x41
		f.Add(mut)
	}
	for _, off := range []int{firstData, firstTree} {
		mut := append([]byte(nil), vb...)
		copy(mut[off:], bytes.Repeat([]byte{0xff}, 8))
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		err := decodeMC(New(tinyConfig()), data)
		if err == nil {
			return
		}
		if !errors.Is(err, snapshot.ErrSnapshotCorrupt) &&
			!errors.Is(err, snapshot.ErrSnapshotVersion) &&
			!errors.Is(err, snapshot.ErrSnapshotConfigMismatch) {
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}
