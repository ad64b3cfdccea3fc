package otp

import (
	"fmt"
	"testing"
	"testing/quick"

	"rmcc/internal/rng"
)

func testUnit(t testing.TB) *Unit {
	t.Helper()
	var master [16]byte
	for i := range master {
		master[i] = byte(i * 17)
	}
	return MustNewUnit(DeriveKeys(master))
}

func TestDeriveKeysDistinct(t *testing.T) {
	k := DeriveKeys([16]byte{1})
	all := [][]byte{k.BaselineEnc, k.BaselineMac, k.CtrEnc, k.CtrMac, k.AddrEnc, k.AddrMac}
	for i := range all {
		if len(all[i]) != 16 {
			t.Fatalf("key %d is %d bytes, want 16", i, len(all[i]))
		}
		for j := i + 1; j < len(all); j++ {
			if string(all[i]) == string(all[j]) {
				t.Fatalf("keys %d and %d identical", i, j)
			}
		}
	}
	for i, v := range k.Mac {
		if v == 0 {
			t.Fatalf("mac key %d is zero", i)
		}
	}
	// Pinned: every simulator run's pads, MACs and figures derive from
	// these bytes.
	if got := fmt.Sprintf("%x %x %x", k.BaselineEnc, k.AddrMac, k.Mac[0]); got !=
		"faeb01888d2e92aee70ecc1c638bf6d6 241e97865ed3b56cef8912f6ede93b3d 186fc64c5c5681ab" {
		t.Fatalf("derived keys changed: %s", got)
	}
	MustNewUnit(k) // must build an AES-128 unit
}

func TestPadXorInvolution(t *testing.T) {
	u := testUnit(t)
	f := func(block [8]uint64, addr, ctr uint64) bool {
		orig := block
		p := u.RMCCPad(u.CounterOnly(ctr), addr)
		p.XorBlock(&block) // encrypt
		if block == orig {
			return false // pad must not be all-zero in practice
		}
		p.XorBlock(&block) // decrypt
		return block == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRMCCPadDependsOnCounterAndAddress(t *testing.T) {
	u := testUnit(t)
	base := u.RMCCPad(u.CounterOnly(100), 0x1000)
	if diff := u.RMCCPad(u.CounterOnly(101), 0x1000); diff == base {
		t.Fatal("pad identical across counters")
	}
	if diff := u.RMCCPad(u.CounterOnly(100), 0x1040); diff == base {
		t.Fatal("pad identical across addresses")
	}
}

func TestRMCCPadWordsDistinct(t *testing.T) {
	u := testUnit(t)
	p := u.RMCCPad(u.CounterOnly(7), 0x2000)
	for i := 0; i < WordsPerBlock; i++ {
		for j := i + 1; j < WordsPerBlock; j++ {
			if p[i] == p[j] {
				t.Fatalf("pad words %d and %d identical", i, j)
			}
		}
	}
}

func TestEncMacPadsDiffer(t *testing.T) {
	// §IV-C5: OTPs for encryption and MAC must differ for the same block.
	u := testUnit(t)
	cr := u.CounterOnly(42)
	if cr.Enc == cr.Mac {
		t.Fatal("counter-only results for enc and mac identical")
	}
	encW := Combine(cr.Enc, u.AddressOnlyEnc(0x3000, 0))
	macW := Combine(cr.Mac, u.AddressOnlyMac(0x3000))
	if encW == macW {
		t.Fatal("enc and mac pad words identical")
	}
}

// TestTypeARepeatEliminated reproduces §IV-D1: the OTP of (addr=x, ctr=y)
// must differ from the OTP of (addr=y, ctr=x) even though CLMUL is
// commutative, because the AES inputs are padded into disjoint domains and
// keyed differently.
func TestTypeARepeatEliminated(t *testing.T) {
	u := testUnit(t)
	x, y := uint64(0x40), uint64(0x80)
	p1 := u.RMCCPad(u.CounterOnly(y), x)
	p2 := u.RMCCPad(u.CounterOnly(x), y)
	if p1 == p2 {
		t.Fatal("type-A OTP repeat: swap of addr/ctr roles produced identical pads")
	}
}

// TestNoOTPRepeatAcrossWritebacks samples the core security invariant: for a
// fixed block, pads across many counter values never collide.
func TestNoOTPRepeatAcrossWritebacks(t *testing.T) {
	u := testUnit(t)
	addr := uint64(0x7f000)
	seen := make(map[Word128]uint64)
	for ctr := uint64(1); ctr <= 4096; ctr++ {
		p := u.RMCCPad(u.CounterOnly(ctr), addr)
		if prev, ok := seen[p[0]]; ok {
			t.Fatalf("OTP repeat between counters %d and %d", prev, ctr)
		}
		seen[p[0]] = ctr
	}
}

func TestCounterMaskApplied(t *testing.T) {
	u := testUnit(t)
	// Counters differing only above bit 55 are architecturally identical.
	a := u.CounterOnly(5)
	b := u.CounterOnly(5 | 1<<56)
	if a != b {
		t.Fatal("counter-only result should depend only on the low 56 bits")
	}
}

func TestBaselinePadProperties(t *testing.T) {
	u := testUnit(t)
	p1 := u.BaselinePad(0x1000, 9)
	p2 := u.BaselinePad(0x1000, 10)
	p3 := u.BaselinePad(0x1040, 9)
	if p1 == p2 || p1 == p3 {
		t.Fatal("baseline pad does not separate counter/address")
	}
	for i := 0; i < WordsPerBlock; i++ {
		for j := i + 1; j < WordsPerBlock; j++ {
			if p1[i] == p1[j] {
				t.Fatalf("baseline pad words %d, %d identical", i, j)
			}
		}
	}
}

func TestBaselineMacOTPDiffersFromEncPad(t *testing.T) {
	u := testUnit(t)
	p := u.BaselinePad(0x4000, 3)
	m := u.BaselineMacOTP(0x4000, 3)
	if m == (p[0].Hi^p[0].Lo)&((1<<56)-1) {
		t.Fatal("MAC OTP coincides with folded enc pad word (keys not separated)")
	}
}

func TestBlockMACVerifyAndTamper(t *testing.T) {
	u := testUnit(t)
	r := rng.New(3)
	var words [8]uint64
	for i := range words {
		words[i] = r.Uint64()
	}
	otp56 := u.RMCCMacOTP(u.CounterOnly(77), 0x9000)
	mac := u.BlockMAC(&words, otp56)
	if got := u.BlockMAC(&words, otp56); got != mac {
		t.Fatal("MAC not deterministic")
	}
	words[3] ^= 0x10
	if got := u.BlockMAC(&words, otp56); got == mac {
		t.Fatal("tampered block passed MAC")
	}
}

// TestRMCCvsBaselineEquivalentSecurityShape checks that the RMCC pad is as
// "wide" as the baseline pad: full 512-bit coverage, no zero words.
func TestRMCCPadNonDegenerate(t *testing.T) {
	u := testUnit(t)
	r := rng.New(4)
	zeroWords := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		p := u.RMCCPad(u.CounterOnly(r.Uint64()), r.Uint64()&^63)
		for _, w := range p {
			if w.IsZero() {
				zeroWords++
			}
		}
	}
	if zeroWords > 0 {
		t.Fatalf("%d zero pad words in %d trials", zeroWords, trials)
	}
}

func BenchmarkCounterOnly(b *testing.B) {
	u := testUnit(b)
	for i := 0; i < b.N; i++ {
		_ = u.CounterOnly(uint64(i))
	}
}

func BenchmarkRMCCPadFromMemoizedResult(b *testing.B) {
	u := testUnit(b)
	cr := u.CounterOnly(1) // memoized: computed once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = u.RMCCPad(cr, uint64(i)<<6)
	}
}

func BenchmarkBaselinePad(b *testing.B) {
	u := testUnit(b)
	for i := 0; i < b.N; i++ {
		_ = u.BaselinePad(uint64(i)<<6, uint64(i))
	}
}
