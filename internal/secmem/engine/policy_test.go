package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"rmcc/internal/obs"
	"rmcc/internal/rng"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/snapshot"
)

// TestUpdatePolicyPinned pins the counter-update policy (§IV-B, with the
// §IV-C1 read-triggered updates and the §IV-C2 overflow rules) at both
// counter levels it runs on: seeded, skewed read/write streams drive each
// controller, and the SHA-256 digests of its EncodeState bytes, its Stats,
// and its trail (every Outcome's chain and traffic, in order, plus every
// traced event) must equal the ones recorded when the digests were
// written. A small counter cache and short epochs make the streams reach
// every branch of the policy; the test also requires each policy counter
// to move in some cell, so a stream that stops reaching a branch fails
// here rather than pinning nothing. The 1 088 KiB Morphable cell leaves
// the last level-1 node with 8 of its 128 children, so a tree relevel
// there re-MACs fewer children than the budget it is charged.
func TestUpdatePolicyPinned(t *testing.T) {
	cells := []struct {
		mode                Mode
		scheme              counter.Scheme
		memKiB, initSeed    uint64
		state, stats, trail string
	}{
		{
			Baseline, counter.SGX, 16 << 10, 1,
			"7fae1af0746194a0b5dcbd1d57ed807491a259fed00ae2a4b1b0c25c78dd7433",
			"6e70e8bfdd952dd834d9e2a576c0a308cb765f8882c2a74ff6ccb1d2d4f2632c",
			"f403c74cf8a1846bdfe9be8b10e57cdce64248505f1f0f2621a04bbe0be3a697",
		},
		{
			Baseline, counter.SC64, 16 << 10, 1,
			"2d3fc2f5754f05149997c5109814c5d220f3f48fbaf82275a8374f36561ce9e5",
			"1cee41c8241973ed7ebe6dbac6d1a72f117f6559658094ea0ac0d703f853ca6c",
			"1946b015f578cf074eff76074e6c0ae3d7fd63b0401b30fb22c338d64b846054",
		},
		{
			Baseline, counter.Morphable, 16 << 10, 1,
			"29eb4c0bf07cc3d3a0b1a2cef626fa505f4ac9e46aa8e0db6c3dab104cd5b116",
			"28697dc1918e023e0a7dc056134f3c7d028a94056dd0b0c705b4739b2aedac4f",
			"4b81a6d6793ece05e0f3eda28820b744c46d86974e0fe32293cc474b5feef5dc",
		},
		{
			RMCC, counter.SGX, 16 << 10, 1,
			"26c4a2aa26b4767fe1cf386285dba5a088e7e7ad8adcb1e4c5df40d67c88483d",
			"80d8be3510b1df5a15898174a3ca92374210934c37747c1ce22666a1ec4c0218",
			"98493283677b6f8c2212b9de919883dfb7543d28e1d04b16d82b61ba0f490d50",
		},
		{
			RMCC, counter.SC64, 16 << 10, 1,
			"8b88218645b7cc56c860115dffa04cd280974105e2ebd14bbb33c2be822954e5",
			"8cfee5c5f9e6a196d1483aeabe0f536a8aabbde31bb066f92fdc3829cd54a36b",
			"8f4d79be5185a200de38a2bb719753705612f654a364ffd34c70c059e862689a",
		},
		{
			RMCC, counter.Morphable, 16 << 10, 1,
			"5ac4a09fa531ff5c7e104caafbdc3efbcb869539d88632f9268e65a81daec2f3",
			"83e75346380309014f92dfe00f29c9b87eac0fad0ffae2fe94133350d5937e23",
			"14b27e28591c174c31e6862e0b108326c833366e7f7d168363b36b83882a761e",
		},
		// Init seed 21 leaves node 1 off the warm-start ladder, more than
		// 127 below the L1 table's values, so a bump there relevels it
		// under the L1 budget.
		{
			RMCC, counter.Morphable, 1088, 21,
			"27a4191029f8647b8e7d2a4c723e7092ae147444b63ac6406e11be49008b3886",
			"f41afafd7e0dc3895de5e402eaadc6ba470f1523c65155bceb97a2745ac85a6f",
			"efad9d662a1290f674cf334702626e1079cd7168d498cc88fead1f9a8221f988",
		},
	}
	moved := make([]uint64, len(policyCounters(&Stats{})))
	for k, c := range cells {
		name := fmt.Sprintf("%v/%v/%dKiB", c.mode, c.scheme, c.memKiB)
		cfg := DefaultConfig(c.mode, c.scheme, c.memKiB<<10)
		cfg.CounterCacheBytes, cfg.CounterCacheWays = 4<<10, 4
		cfg.L0Table.EpochAccesses = 10_000
		cfg.L1Table.EpochAccesses = 10_000
		cfg.InitSeed = c.initSeed
		mc := New(cfg)
		trail := sha256.New()
		tr := obs.NewTracer(1)
		tr.SetSink(eventHasher{trail})
		mc.SetTracer(tr)
		drivePolicyStream(mc, uint64(101+k), 200_000, trail)

		var e snapshot.Enc
		mc.EncodeState(&e)
		s := mc.Stats()
		statsSum := sha256.New()
		binary.Write(statsSum, binary.LittleEndian, &s)
		state := fmt.Sprintf("%x", sha256.Sum256(e.Data()))
		stats := fmt.Sprintf("%x", statsSum.Sum(nil))
		trailSum := fmt.Sprintf("%x", trail.Sum(nil))
		if state != c.state || stats != c.stats || trailSum != c.trail {
			t.Errorf("%s: digests moved:\nstate %s, want %s\nstats %s, want %s\ntrail %s, want %s\nstats: %+v",
				name, state, c.state, stats, c.stats, trailSum, c.trail, s)
		}
		for j, pc := range policyCounters(&s) {
			moved[j] += *pc.v
		}
	}
	for j, pc := range policyCounters(&Stats{}) {
		if moved[j] == 0 {
			t.Errorf("no cell moved %s: a policy branch went unpinned", pc.name)
		}
	}
}

// policyCounter is a Stats field that counts one of the update policy's
// branches.
type policyCounter struct {
	name string
	v    *uint64
}

func policyCounters(s *Stats) []policyCounter {
	return []policyCounter{
		{"WriteJumps", &s.WriteJumps},
		{"WriteJumpRelevels", &s.WriteJumpRelevels},
		{"WriteJumpsDenied", &s.WriteJumpsDenied},
		{"BaselineOverflows", &s.BaselineOverflows},
		{"TreeJumps", &s.TreeJumps},
		{"OverheadL1Blocks", &s.OverheadL1Blocks},
		{"ReadUpdates", &s.ReadUpdates},
		{"ReadUpdateRelevels", &s.ReadUpdateRelevels},
		{"ReadUpdatesDenied", &s.ReadUpdatesDenied},
	}
}

// drivePolicyStream runs n seeded accesses against mc in alternating
// phases: write phases hammer a few hot blocks (pushing their groups past
// what the encodings hold) and write across memory (filling the counter
// cache with dirty blocks whose evictions bump tree counters); read phases
// miss the counter cache across memory, where read-triggered updates run,
// while write phases leave the budgets to build up. Every Outcome is
// written to trail.
func drivePolicyStream(mc *MC, seed uint64, n int, trail hash.Hash) {
	const phase = 20_000
	r := rng.New(seed)
	st := mc.Store()
	blocks := uint64(st.NumDataBlocks())
	var hot [16]uint64
	for i := range hot {
		hot[i] = r.Uint64n(blocks)
	}
	for k := 0; k < n; k++ {
		writing := k/phase%2 == 0
		var b uint64
		write := false
		switch x := r.Uint64n(16); {
		case writing && x < 8:
			b, write = hot[r.Uint64n(uint64(len(hot)))], true
		case writing:
			b, write = r.Uint64n(blocks), x < 14
		case x < 2:
			b, write = hot[r.Uint64n(uint64(len(hot)))], true
		default:
			b = r.Uint64n(blocks)
		}
		var out Outcome
		if write {
			out = mc.Write(st.DataBlockAddr(int(b)))
		} else {
			out = mc.Read(st.DataBlockAddr(int(b)))
		}
		mc.OnEpochAccess()
		hashOutcome(trail, &out)
	}
}

func hashOutcome(h hash.Hash, out *Outcome) {
	var flags uint64
	for i, f := range []bool{out.Write, out.CtrCacheHit, out.L0MemoHit, out.Accelerated, out.Rekeyed} {
		if f {
			flags |= 1 << i
		}
	}
	b := make([]byte, 0, 256)
	w := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	w(out.DataAddr, flags, uint64(out.L0MemoSource), uint64(len(out.Violations)), uint64(len(out.Chain)))
	for _, c := range out.Chain {
		var hit uint64
		if c.MemoHit {
			hit = 1
		}
		w(c.Addr, uint64(c.Level), hit, uint64(c.MemoSource))
	}
	for _, ts := range [][]Traffic{out.Extra, out.OverflowTraffic} {
		w(uint64(len(ts)))
		for _, x := range ts {
			var wr uint64
			if x.Write {
				wr = 1
			}
			w(x.Addr, wr, uint64(x.Kind))
		}
	}
	h.Write(b)
}

// eventHasher writes every traced event to a hash.
type eventHasher struct{ h hash.Hash }

func (e eventHasher) OnEvent(ev obs.Event) {
	var b [40]byte
	for k, v := range []uint64{ev.Seq, uint64(ev.Kind), ev.Addr, ev.V1, ev.V2} {
		binary.LittleEndian.PutUint64(b[8*k:], v)
	}
	e.h.Write(b[:])
}
