package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
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
// written. The kept digest hashes the trail without its EvOSMUpdate
// events and without event sequence numbers, so it holds across a change
// that only moves where the observed-max registers are traced. A small
// counter cache and short epochs make the streams reach every branch of
// the policy; the test also requires each policy counter to move in some
// cell, so a stream that stops reaching a branch fails here rather than
// pinning nothing. The 1 088 KiB Morphable cell leaves the last level-1
// node with 8 of its 128 children, so a tree relevel there re-MACs fewer
// children than the budget it is charged.
func TestUpdatePolicyPinned(t *testing.T) {
	cells := []struct {
		mode                Mode
		scheme              counter.Scheme
		memKiB, initSeed    uint64
		state, stats, trail string
		kept                string
	}{
		{
			Baseline, counter.SGX, 16 << 10, 1,
			"fcdb1f9e18d8bc436f23f860d3528ed725fbadf5a5994500fde0c5dce9ac09b8",
			"6e70e8bfdd952dd834d9e2a576c0a308cb765f8882c2a74ff6ccb1d2d4f2632c",
			"42658a63614d9356b08fad1e728cf64b3e56a2ed8b41fd2f0830f6152f0f1938",
			"ac02a08b0d61a568bbf0590fc7fdab30af66cefb13369ae6d5104053f6ba851f",
		},
		{
			Baseline, counter.SC64, 16 << 10, 1,
			"a7aac93bc606ead4eb263a00201524f79b4b039954d2a6d742219648cca4646c",
			"1cee41c8241973ed7ebe6dbac6d1a72f117f6559658094ea0ac0d703f853ca6c",
			"7e13bc68c3b084cd7cd1c58cfc1eea5f95db02915cc0c63a1f32130932956b9f",
			"36ebc01e544ca7753bae26f9069b0ef71788ca993004bc66fb63d84a704df6ec",
		},
		{
			Baseline, counter.Morphable, 16 << 10, 1,
			"63bf9970f1f1ff83b937f72349d8d2cd089f25b15a9f649584ae006b555c2304",
			"28697dc1918e023e0a7dc056134f3c7d028a94056dd0b0c705b4739b2aedac4f",
			"0f59f412bf92036d05ceb0936d9a865cc8096a1db63830ea14ac4634747ac96e",
			"b6b2d78456a9fac4e98e0235e9707c6bd8945a4cd381011d2fcd8f94139f86ce",
		},
		{
			RMCC, counter.SGX, 16 << 10, 1,
			"d59771a758f97c3a2fe7827bae58076365609735d62d4952543ed57f72f6a284",
			"80d8be3510b1df5a15898174a3ca92374210934c37747c1ce22666a1ec4c0218",
			"a61eed50a1a46f3b819d71ea60ec9e138729fcf6f6dd4f8fb15bcf13e3c378cb",
			"f5d5fc6d2b32c2d95875084e655849e007652ca4ae594d1b32c2328141cd1e60",
		},
		{
			RMCC, counter.SC64, 16 << 10, 1,
			"9cd773e37910d84cfa8fb464b15f11eacee7766c0841b6b3554cd7840f64c177",
			"8cfee5c5f9e6a196d1483aeabe0f536a8aabbde31bb066f92fdc3829cd54a36b",
			"238d65dc93df9b665b8522959649885221fc7f2f41fda0474bb4035400081971",
			"048bd8e334dfb0413c29e307d2593acc276a3357d6b728c9634a9e3091514baf",
		},
		{
			RMCC, counter.Morphable, 16 << 10, 1,
			"92e598c73ef64206d4d19bb7271899e6db41677fa7f29067ba4f143acfb189ff",
			"83e75346380309014f92dfe00f29c9b87eac0fad0ffae2fe94133350d5937e23",
			"a97962eb6cf144aeb56e7c25c0f8c604f2046dacc8200e0212159bde1c7cf1ef",
			"3ea12f233271de88e5ef3c4d6720e6f4e6202f0e794e4e099e436249da48b3d6",
		},
		// Init seed 21 leaves node 1 off the warm-start ladder, more than
		// 127 below the L1 table's values, so a bump there relevels it
		// under the L1 budget.
		{
			RMCC, counter.Morphable, 1088, 21,
			"f172454ab1b33a7de7f3a134b044557915bcc85afc53025a6625085edcad5cc5",
			"f41afafd7e0dc3895de5e402eaadc6ba470f1523c65155bceb97a2745ac85a6f",
			"02b16b1f9ca9ba35df6e9c4a98e4fa73be24d3915d72f918ddf8d340da7485d8",
			"1a6380c98d1c8b0a41b1af4d27dfefce057c46d18cf14df62da5cc44736b48d7",
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
		trail, kept := sha256.New(), sha256.New()
		tr := obs.NewTracer(1)
		tr.SetSink(eventHasher{trail, kept})
		mc.SetTracer(tr)
		drivePolicyStream(mc, uint64(101+k), 200_000, io.MultiWriter(trail, kept))

		var e snapshot.Enc
		mc.EncodeState(&e)
		s := mc.Stats()
		statsSum := sha256.New()
		binary.Write(statsSum, binary.LittleEndian, &s)
		state := fmt.Sprintf("%x", sha256.Sum256(e.Data()))
		stats := fmt.Sprintf("%x", statsSum.Sum(nil))
		trailSum := fmt.Sprintf("%x", trail.Sum(nil))
		keptSum := fmt.Sprintf("%x", kept.Sum(nil))
		if state != c.state || stats != c.stats || trailSum != c.trail || keptSum != c.kept {
			t.Errorf("%s: digests moved:\nstate %s, want %s\nstats %s, want %s\ntrail %s, want %s\nkept  %s, want %s\nstats: %+v",
				name, state, c.state, stats, c.stats, trailSum, c.trail, keptSum, c.kept, s)
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
func drivePolicyStream(mc *MC, seed uint64, n int, trail io.Writer) {
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

func hashOutcome(h io.Writer, out *Outcome) {
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

// eventHasher writes every traced event to all, and every event but
// EvOSMUpdate, without its Seq, to kept.
type eventHasher struct{ all, kept io.Writer }

func (e eventHasher) OnEvent(ev obs.Event) {
	var b [40]byte
	for k, v := range []uint64{ev.Seq, uint64(ev.Kind), ev.Addr, ev.V1, ev.V2} {
		binary.LittleEndian.PutUint64(b[8*k:], v)
	}
	e.all.Write(b[:])
	if ev.Kind != obs.EvOSMUpdate {
		e.kept.Write(b[8:])
	}
}
