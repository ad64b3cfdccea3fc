// Package checker enforces the security invariants of counter-mode secure
// memory over a running simulation:
//
//  1. pad-uniqueness — no (block, counter) pair is ever used twice to
//     encrypt; equivalently, every block's counter strictly increases
//     across writes and relevels;
//  2. bounded growth — counters never exceed the architectural 56-bit
//     ceiling (which would force a re-key/reboot);
//  3. freshness discipline — a block read back always decrypts under the
//     counter it was last sealed with (delegated to the engine's content
//     store, whose failures the checker surfaces).
//
// The checker observes the counter store between accesses; it needs no
// hooks inside the engine, so it can wrap any mode/scheme combination. Use
// it in integration tests and long-running validation harnesses.
//
// The checker is re-key aware: when the engine's key epoch advances (a
// counter-exhaustion reboot or RekeyRecover escalation), all counters
// legitimately reset to zero, so the regression scan re-baselines instead
// of reporting thousands of false rollbacks.
package checker

import (
	"fmt"

	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
)

// Class identifies which invariant a violation broke.
type Class int

// Violation classes.
const (
	// ClassCounterRegression: a data-block counter moved backwards without
	// a key-epoch change — pad reuse / rollback.
	ClassCounterRegression Class = iota
	// ClassCounterCeiling: a counter exceeds the architectural 56-bit
	// ceiling without the engine re-keying.
	ClassCounterCeiling
	// ClassTreeRegression: an integrity-tree (L1) counter moved backwards
	// without a key-epoch change.
	ClassTreeRegression
	// ClassDecryptMismatch: the engine reported plaintext round-trip
	// failures since the last Check.
	ClassDecryptMismatch
	// ClassMACFailure: the engine reported MAC check failures since the
	// last Check.
	ClassMACFailure

	// NumClasses sizes per-class report arrays.
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassCounterRegression:
		return "counter-regression"
	case ClassCounterCeiling:
		return "counter-ceiling"
	case ClassTreeRegression:
		return "tree-counter-regression"
	case ClassDecryptMismatch:
		return "decrypt-mismatch"
	case ClassMACFailure:
		return "mac-failure"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Violation is one recorded invariant failure.
type Violation struct {
	Class Class
	Msg   string
}

// Report summarizes accumulated violations by class.
type Report struct {
	Counts [NumClasses]uint64
	Total  uint64
}

// String renders the non-zero classes.
func (r Report) String() string {
	if r.Total == 0 {
		return "checker: clean"
	}
	s := fmt.Sprintf("checker: %d violations:", r.Total)
	for c := Class(0); c < NumClasses; c++ {
		if n := r.Counts[c]; n > 0 {
			s += fmt.Sprintf(" %v=%d", c, n)
		}
	}
	return s
}

// Checker validates invariants over an MC's counter store. Scan cost is
// O(sampled blocks), so it samples a strided subset for large memories.
type Checker struct {
	mc     *engine.MC
	stride int
	last   map[int]uint64 // sampled block -> last observed counter
	lastL1 map[int]uint64 // sampled L1 child -> last observed counter
	epoch  uint64         // key epoch at the previous Check

	// Engine failure counters at the previous Check, so each failure is
	// reported exactly once (delta-based) rather than re-reported on every
	// subsequent Check.
	lastDecrypt uint64
	lastMAC     uint64

	violations []Violation
}

// New wraps an MC. sampleStride selects every n-th block to track (1 =
// every block; larger values bound memory for big footprints).
func New(mc *engine.MC, sampleStride int) *Checker {
	if sampleStride < 1 {
		sampleStride = 1
	}
	c := &Checker{
		mc:     mc,
		stride: sampleStride,
		last:   make(map[int]uint64),
		lastL1: make(map[int]uint64),
		epoch:  mc.KeyEpoch(),
	}
	s := mc.Stats()
	c.lastDecrypt = s.DecryptMismatches
	c.lastMAC = s.IntegrityFailures
	c.snapshot()
	return c
}

func (c *Checker) snapshot() {
	st := c.mc.Store()
	if st == nil {
		return
	}
	for i := 0; i < st.NumDataBlocks(); i += c.stride {
		c.last[i] = st.Counter(0, i)
	}
	if st.Levels() >= 1 {
		for x := 0; x < st.TreeLevelLen(1); x += c.stride {
			c.lastL1[x] = st.Counter(1, x)
		}
	}
}

// Violations returns the accumulated invariant failures as strings (legacy
// form; see Typed for the classed records).
func (c *Checker) Violations() []string {
	out := make([]string, len(c.violations))
	for i, v := range c.violations {
		out[i] = v.Msg
	}
	return out
}

// Typed returns the accumulated invariant failures with their classes.
func (c *Checker) Typed() []Violation { return c.violations }

// Report tallies accumulated violations by class.
func (c *Checker) Report() Report {
	var r Report
	for _, v := range c.violations {
		if v.Class >= 0 && v.Class < NumClasses {
			r.Counts[v.Class]++
		}
		r.Total++
	}
	return r
}

func (c *Checker) violatef(class Class, format string, args ...interface{}) {
	c.violations = append(c.violations, Violation{Class: class, Msg: fmt.Sprintf(format, args...)})
}

// Check rescans the sampled blocks and records any invariant violations
// since the previous Check (or construction). Call it periodically — e.g.
// every few thousand simulated accesses.
func (c *Checker) Check() {
	st := c.mc.Store()
	if st == nil {
		return
	}
	if ep := c.mc.KeyEpoch(); ep != c.epoch {
		// The engine re-keyed: every counter legitimately reset. Re-baseline
		// instead of flagging the resets as rollbacks.
		c.epoch = ep
		c.snapshot()
	} else {
		for i, prev := range c.last {
			cur := st.Counter(0, i)
			if cur < prev {
				c.violatef(ClassCounterRegression,
					"block %d counter decreased: %d -> %d (pad reuse!)", i, prev, cur)
			}
			if cur > counter.MaxCounter {
				c.violatef(ClassCounterCeiling,
					"block %d counter %d exceeds the 56-bit ceiling", i, cur)
			}
			c.last[i] = cur
		}
		for x, prev := range c.lastL1 {
			cur := st.Counter(1, x)
			if cur < prev {
				c.violatef(ClassTreeRegression,
					"L1 child %d counter decreased: %d -> %d", x, prev, cur)
			}
			c.lastL1[x] = cur
		}
	}
	// Functional decrypt/MAC failures recorded by the engine are security
	// violations unless a test tampered deliberately. Delta-based: each
	// engine-reported failure is surfaced exactly once.
	s := c.mc.Stats()
	if s.DecryptMismatches > c.lastDecrypt {
		c.violatef(ClassDecryptMismatch,
			"%d decrypt mismatches reported by the engine", s.DecryptMismatches-c.lastDecrypt)
	}
	if s.IntegrityFailures > c.lastMAC {
		c.violatef(ClassMACFailure,
			"%d MAC failures reported by the engine", s.IntegrityFailures-c.lastMAC)
	}
	c.lastDecrypt = s.DecryptMismatches
	c.lastMAC = s.IntegrityFailures
}

// Ok reports whether no violations have been recorded.
func (c *Checker) Ok() bool { return len(c.violations) == 0 }
