package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("sequence diverged at %d: %x vs %x", i, av, bv)
		}
	}
}

// TestKnownAnswers pins outputs of the xoshiro256** stream: the first draws
// of three seeds, a Fork, and a run of Uint64n(3) with the state it leaves.
// Any rewrite of the generator must reproduce them, or every seeded
// workload, counter image and figure would move.
func TestKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want [4]uint64
	}{
		{0, [4]uint64{0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c}},
		{1, [4]uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7}},
		{^uint64(0), [4]uint64{0x8f5520d52a7ead08, 0xc476a018caa1802d, 0x81de31c0d260469e, 0xbf658d7e065f3c2f}},
	} {
		r := New(tc.seed)
		for i, want := range tc.want {
			if got := r.Uint64(); got != want {
				t.Errorf("New(%#x) draw %d = %#016x, want %#016x", tc.seed, i, got, want)
			}
		}
	}

	parent := New(7)
	child := parent.Fork()
	for i, want := range []uint64{0x5b98fcecf44f15d0, 0xf8ec72489364b545} {
		if got := child.Uint64(); got != want {
			t.Errorf("New(7).Fork() draw %d = %#016x, want %#016x", i, got, want)
		}
	}
	if got, want := parent.Uint64(), uint64(0x475c3d964f482cd2); got != want {
		t.Errorf("New(7) draw after Fork = %#016x, want %#016x", got, want)
	}

	r := New(3)
	want := []uint64{2, 1, 2, 1, 2, 2, 2, 2, 2, 2, 0, 1, 2, 0, 2, 0}
	got := make([]uint64, len(want))
	for i := range got {
		got[i] = r.Uint64n(3)
	}
	if !slices.Equal(got, want) {
		t.Errorf("New(3).Uint64n(3) x16 = %v, want %v", got, want)
	}
	if s, want := r.State(), [4]uint64{0xd9b5d6d5dc2a9635, 0x8e4dec578326760, 0xe429ce8ec42cd34b, 0x5c1fd1dcb5de96f7}; s != want {
		t.Errorf("state after Uint64n = %#x, want %#x", s, want)
	}
}

// TestThreshold checks Threshold(p) against the Float64 comparison it
// replaces, float64(v)/2^53 < p, at v = t-1, t and t+1.
func TestThreshold(t *testing.T) {
	const one = 1 << 53
	for _, p := range []float64{
		0, 0x1p-53, 0.06, 0.19, 0.25, 0.5, 0.57, 0.76, 0.95, 1 - 0x1p-53, 1,
		0.57 + 0.19, 0.57 + 0.19 + 0.19, // the default R-MAT sums
		-0.5, 1.5, math.Inf(-1), math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64,
	} {
		th := Threshold(p)
		if th > one {
			t.Errorf("Threshold(%v) = %d, above 2^53", p, th)
		}
		for _, v := range []uint64{th - 1, th, th + 1} {
			if v >= one { // not a 53-bit draw (also catches 0-1)
				continue
			}
			if got, want := v < th, float64(v)/one < p; got != want {
				t.Errorf("p=%v t=%d v=%d: v < t is %v, Float64 comparison %v", p, th, v, got, want)
			}
		}
	}
	for p, want := range map[float64]uint64{0: 0, 0x1p-53: 1, 0.5: one / 2, 1 - 0x1p-53: one - 1, 1: one, -0.5: 0, 1.5: one} {
		if got := Threshold(p); got != want {
			t.Errorf("Threshold(%v) = %d, want %d", p, got, want)
		}
	}
	if got := Threshold(math.NaN()); got != 0 {
		t.Errorf("Threshold(NaN) = %d, want 0", got)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSmallSeedsWellMixed(t *testing.T) {
	// splitmix64 seeding must not leave near-zero state for seed 0.
	r := New(0)
	zeros := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("seed 0 produced %d zero outputs in 64 draws", zeros)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Fork()
	// The child stream should not replay the parent stream.
	p2 := New(7)
	p2.Uint64() // consume the draw Fork used
	matches := 0
	for i := 0; i < 100; i++ {
		if child.Uint64() == p2.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("fork correlates with parent: %d/100 matches", matches)
	}
}

func TestUint64nBounds(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		r := New(seed)
		for i := 0; i < 32; i++ {
			if v := r.Uint64n(n); v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	p := r.Perm(257)
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(13)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: %v", xs)
	}
}

func TestUniformityChiSquare(t *testing.T) {
	// 16 buckets over 160k draws: chi-square with 15 dof should be modest.
	r := New(99)
	const buckets, draws = 16, 160000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(buckets)]++
	}
	expected := float64(draws) / buckets
	chi := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	// 99.9th percentile of chi-square(15) is ~37.7.
	if chi > 37.7 {
		t.Fatalf("chi-square too high: %v (counts %v)", chi, counts)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
