package randtest

import (
	"math"
	"testing"

	"rmcc/internal/crypto/otp"
	"rmcc/internal/rng"
)

func randomBits(n int, seed uint64) Bits {
	r := rng.New(seed)
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = r.Uint64()
	}
	return FromUint64s(words)[:n]
}

func allZeros(n int) Bits { return make(Bits, n) }
func allOnes(n int) Bits {
	b := make(Bits, n)
	for i := range b {
		b[i] = 1
	}
	return b
}

// alternating returns 0101...; it passes frequency but fails runs/serial.
func alternating(n int) Bits {
	b := make(Bits, n)
	for i := range b {
		b[i] = byte(i & 1)
	}
	return b
}

func TestFromBytes(t *testing.T) {
	bits := FromBytes([]byte{0b10110001})
	want := Bits{1, 0, 1, 1, 0, 0, 0, 1}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bit %d = %d, want %d", i, bits[i], want[i])
		}
	}
}

func TestFromUint64s(t *testing.T) {
	bits := FromUint64s([]uint64{1})
	if len(bits) != 64 || bits[63] != 1 || bits[0] != 0 {
		t.Fatalf("unexpected expansion: len=%d first=%d last=%d", len(bits), bits[0], bits[63])
	}
}

func TestFrequencyRejectsBiased(t *testing.T) {
	if Frequency(allZeros(1000)).Pass() {
		t.Fatal("all-zeros passed frequency")
	}
	if Frequency(allOnes(1000)).Pass() {
		t.Fatal("all-ones passed frequency")
	}
}

func TestFrequencyAcceptsRandom(t *testing.T) {
	if r := Frequency(randomBits(100000, 1)); !r.Pass() {
		t.Fatalf("random bits failed frequency: %v", r)
	}
}

func TestRunsRejectsAlternating(t *testing.T) {
	if Runs(alternating(10000)).Pass() {
		t.Fatal("pure alternation passed runs test")
	}
}

func TestRunsAcceptsRandom(t *testing.T) {
	if r := Runs(randomBits(100000, 2)); !r.Pass() {
		t.Fatalf("random bits failed runs: %v", r)
	}
}

func TestBlockFrequencyRejectsClustered(t *testing.T) {
	// First half all ones, second half all zeros: balanced overall but each
	// block is maximally biased.
	n := 10000
	b := make(Bits, n)
	for i := 0; i < n/2; i++ {
		b[i] = 1
	}
	if BlockFrequency(b, 128).Pass() {
		t.Fatal("clustered sequence passed block frequency")
	}
}

func TestLongestRunAcceptsRandomRejectsDegenerate(t *testing.T) {
	if r := LongestRun(randomBits(200000, 3)); !r.Pass() {
		t.Fatalf("random bits failed longest-run: %v", r)
	}
	if LongestRun(allOnes(200000)).Pass() {
		t.Fatal("all-ones passed longest-run")
	}
}

func TestCumulativeSumsAcceptsRandomRejectsDrift(t *testing.T) {
	if r := CumulativeSums(randomBits(100000, 4)); !r.Pass() {
		t.Fatalf("random bits failed cusum: %v", r)
	}
	if CumulativeSums(allOnes(10000)).Pass() {
		t.Fatal("drifting sequence passed cusum")
	}
}

func TestSerialAcceptsRandomRejectsPeriodic(t *testing.T) {
	if r := Serial(randomBits(100000, 5), 5); !r.Pass() {
		t.Fatalf("random bits failed serial: %v", r)
	}
	if Serial(alternating(100000), 5).Pass() {
		t.Fatal("alternating passed serial")
	}
}

func TestApproximateEntropyAcceptsRandomRejectsPeriodic(t *testing.T) {
	if r := ApproximateEntropy(randomBits(100000, 21), 5); !r.Pass() {
		t.Fatalf("random bits failed approximate entropy: %v", r)
	}
	if ApproximateEntropy(alternating(100000), 5).Pass() {
		t.Fatal("alternating passed approximate entropy")
	}
}

func TestIgamcSanity(t *testing.T) {
	// Q(a, 0) = 1; Q decreases in x; a few reference values.
	if got := igamc(2, 0); got != 1 {
		t.Fatalf("igamc(2,0) = %v", got)
	}
	if igamc(1, 1) <= igamc(1, 2) {
		t.Fatal("igamc not decreasing in x")
	}
	// Q(1, x) = exp(-x).
	for _, x := range []float64{0.5, 1, 2, 5} {
		if got, want := igamc(1, x), math.Exp(-x); math.Abs(got-want) > 1e-10 {
			t.Fatalf("igamc(1,%v) = %v, want %v", x, got, want)
		}
	}
	// Q(0.5, x) = erfc(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		if got, want := igamc(0.5, x), math.Erfc(math.Sqrt(x)); math.Abs(got-want) > 1e-10 {
			t.Fatalf("igamc(0.5,%v) = %v, want %v", x, got, want)
		}
	}
}

// TestRMCCOTPPassesBattery reproduces the paper's §IV-D1 empirical claim:
// the stream of RMCC OTPs passes the randomness battery at the same rate as
// the raw AES output streams used to build them.
func TestRMCCOTPPassesBattery(t *testing.T) {
	var master [16]byte
	master[0] = 0x5c
	u := otp.MustNewUnit(otp.DeriveKeys(master))

	const samples = 4096
	otpWords := make([]uint64, 0, samples*2)
	ctrWords := make([]uint64, 0, samples*2)
	addrWords := make([]uint64, 0, samples*2)
	r := rng.New(8)
	for i := 0; i < samples; i++ {
		ctr := r.Uint64()
		addr := r.Uint64() &^ 63
		cr := u.CounterOnly(ctr)
		ar := u.AddressOnlyEnc(addr, 0)
		o := otp.Combine(cr.Enc, ar)
		otpWords = append(otpWords, o.Hi, o.Lo)
		ctrWords = append(ctrWords, cr.Enc.Hi, cr.Enc.Lo)
		addrWords = append(addrWords, ar.Hi, ar.Lo)
	}
	otpRate := PassRate(FromUint64s(otpWords))
	ctrRate := PassRate(FromUint64s(ctrWords))
	addrRate := PassRate(FromUint64s(addrWords))
	t.Logf("pass rates: OTP=%.2f ctrAES=%.2f addrAES=%.2f", otpRate, ctrRate, addrRate)
	if otpRate < 1 {
		for _, r := range Battery(FromUint64s(otpWords)) {
			t.Log(r)
		}
	}
	if otpRate < ctrRate || otpRate < addrRate {
		t.Fatalf("OTP stream (%.2f) passes fewer tests than its AES inputs (%.2f, %.2f)",
			otpRate, ctrRate, addrRate)
	}
}

func BenchmarkBattery(b *testing.B) {
	bits := randomBits(100000, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Battery(bits)
	}
}
