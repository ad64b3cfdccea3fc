// Package rng provides small, fast, deterministic pseudo-random number
// generators used to build reproducible workloads, randomized counter
// initialization, and property-test inputs.
//
// The simulator must be bit-for-bit reproducible across runs and platforms,
// so it cannot depend on math/rand's global state or on seeding from time.
// Every component that needs randomness receives its own *rng.Source seeded
// from an experiment-level master seed.
//
// Float64 is v/2^53 for the 53-bit draw v = Uint64()>>11, and that division
// is exact, so r.Float64() < p holds exactly when r.Uint64()>>11 <
// Threshold(p). Set-up code that draws many Bernoulli trials against a
// fixed p compares integers instead and consumes the same stream.
package rng

import (
	"math"
	"math/bits"
)

// Source is a xoshiro256** generator seeded via splitmix64.
//
// xoshiro256** passes BigCrush and is the generator recommended by its
// authors for general use; splitmix64 turns an arbitrary 64-bit seed into a
// well-distributed initial state even for small seeds like 0 or 1.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

// Fork derives an independent child generator. The child's stream is
// decorrelated from the parent's by hashing the parent's next output with a
// distinct odd constant, so components can fork freely without accidentally
// sharing sequences.
func (r *Source) Fork() *Source {
	return New(r.Uint64() * 0xd1342543de82ef95)
}

// Uint64 returns the next 64 uniformly distributed bits. It works on
// locals so that it fits the compiler's inlining budget.
func (r *Source) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}
	return result
}

// State returns the generator's internal xoshiro256** state, for
// checkpointing. SetState restores it; together they make components that
// carry a Source (e.g. the hardened memo table's insertion randomness)
// snapshot-resumable bit-identically.
func (r *Source) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with one previously
// returned by State.
func (r *Source) SetState(s [4]uint64) { r.s = s }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n): v % n for the first draw v
// at or above 2^64 mod n, which removes modulo bias. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits avoids modulo bias.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Threshold returns the t in [0, 2^53] for which r.Float64() < p holds
// exactly when r.Uint64()>>11 < t: ceil(p·2^53), clamped. A p of 0 or
// below, or NaN, gives 0 (never true); 1 or above gives 2^53 (always).
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders the n elements addressed by swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
