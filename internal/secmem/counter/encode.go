package counter

import "fmt"

// This file implements the actual 64-byte wire formats of the counter
// blocks, bit for bit. The Store in counter.go holds SC-64 and Morphable
// groups, and tree nodes, in the same split form, a shared base plus
// per-block minors, but with no format tag and with 8-bit minors kept as
// nibbles: a low nibble per block, two blocks per byte, and a group's high
// nibbles in a slot of their own only while one of its minors exceeds 15.
// Its hot path reads and updates a minor with a shift and a mask, parsing
// no format, and its encodability checks mirror these capacities exactly.
// Snapshots (EncodeState) carry counter values, not either layout. The
// packing here substantiates those capacity constants, models what a
// hardware decoder must parse — the paper charges 3 ns for Morphable's
// variable-format decode — and gives tests a round-trip target.
//
// Formats:
//
//	SGX        8 × 56-bit counters                                  (448 b)
//	SC-64      64-bit major + 64 × 7-bit minors                     (512 b)
//	Morphable  2-bit format tag, then either
//	           uniform: 64-bit major + 128 × 3-bit minors           (450 b)
//	           ZCC:     64-bit major + 5-bit count +
//	                    up to 30 × (7-bit index, 7-bit minor)       (491 b)
//
// Encoded values are major+minor (minor 0 encodes the shared base), the
// split-counter construction of [5][6].

// Format identifies a counter-block wire format.
type Format uint8

// Formats.
const (
	FormatSGX Format = iota
	FormatSC64
	FormatMorphUniform
	FormatMorphZCC
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatSGX:
		return "sgx"
	case FormatSC64:
		return "sc64"
	case FormatMorphUniform:
		return "morph-uniform"
	case FormatMorphZCC:
		return "morph-zcc"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// bitWriter packs little-endian bit fields into a 64-byte block.
type bitWriter struct {
	block [BlockBytes]byte
	pos   uint // bit position
}

func (w *bitWriter) put(v uint64, bits uint) {
	for i := uint(0); i < bits; i++ {
		if v&(1<<i) != 0 {
			w.block[(w.pos+i)/8] |= 1 << ((w.pos + i) % 8)
		}
	}
	w.pos += bits
}

type bitReader struct {
	block *[BlockBytes]byte
	pos   uint
}

func (r *bitReader) get(bits uint) uint64 {
	var v uint64
	for i := uint(0); i < bits; i++ {
		if r.block[(r.pos+i)/8]&(1<<((r.pos+i)%8)) != 0 {
			v |= 1 << i
		}
	}
	r.pos += bits
	return v
}

// EncodeBlock packs a group's counter values into a 64-byte counter block
// using the scheme's best-fitting format. It fails when no format can
// represent the values — exactly the condition the simulator treats as an
// overflow.
func EncodeBlock(scheme Scheme, vals []uint64) ([BlockBytes]byte, Format, error) {
	var w bitWriter
	switch scheme {
	case SGX:
		if len(vals) > 8 {
			return w.block, 0, fmt.Errorf("counter: SGX block holds 8 counters, got %d", len(vals))
		}
		for _, v := range vals {
			if v > MaxCounter {
				return w.block, 0, fmt.Errorf("counter: value %d exceeds 56 bits", v)
			}
			w.put(v, 56)
		}
		return w.block, FormatSGX, nil

	case SC64:
		if len(vals) > 64 {
			return w.block, 0, fmt.Errorf("counter: SC-64 block holds 64 counters, got %d", len(vals))
		}
		min := minOf(vals)
		w.put(min, 64)
		for _, v := range vals {
			d := v - min
			if d > sc64MinorRange {
				return w.block, 0, fmt.Errorf("counter: spread %d exceeds 7-bit minors", d)
			}
			w.put(d, 7)
		}
		return w.block, FormatSC64, nil

	case Morphable:
		if len(vals) > 128 {
			return w.block, 0, fmt.Errorf("counter: Morphable block holds 128 counters, got %d", len(vals))
		}
		min := minOf(vals)
		max := min
		nonBase := 0
		for _, v := range vals {
			if v > max {
				max = v
			}
			if v > min {
				nonBase++
			}
		}
		switch {
		case max-min <= morphUniformRange:
			w.put(uint64(FormatMorphUniform), 2)
			w.put(min, 64)
			for _, v := range vals {
				w.put(v-min, 3)
			}
			return w.block, FormatMorphUniform, nil
		case max-min <= morphZCCRange && nonBase <= morphZCCMaxNonBase:
			w.put(uint64(FormatMorphZCC), 2)
			w.put(min, 64)
			w.put(uint64(nonBase), 5)
			for i, v := range vals {
				if v > min {
					w.put(uint64(i), 7)
					w.put(v-min, 7)
				}
			}
			return w.block, FormatMorphZCC, nil
		default:
			return w.block, 0, fmt.Errorf("counter: spread %d / %d exceptions fit no Morphable format",
				max-min, nonBase)
		}
	default:
		return w.block, 0, fmt.Errorf("counter: unknown scheme %v", scheme)
	}
}

// DecodeBlock unpacks a counter block produced by EncodeBlock. n is the
// number of counters the block holds (known from the scheme in hardware).
func DecodeBlock(scheme Scheme, block [BlockBytes]byte, n int) ([]uint64, Format, error) {
	r := bitReader{block: &block}
	vals := make([]uint64, n)
	switch scheme {
	case SGX:
		if n > 8 {
			return nil, 0, fmt.Errorf("counter: SGX n=%d", n)
		}
		for i := range vals {
			vals[i] = r.get(56)
		}
		return vals, FormatSGX, nil
	case SC64:
		if n > 64 {
			return nil, 0, fmt.Errorf("counter: SC-64 n=%d", n)
		}
		major := r.get(64)
		for i := range vals {
			vals[i] = major + r.get(7)
		}
		return vals, FormatSC64, nil
	case Morphable:
		if n > 128 {
			return nil, 0, fmt.Errorf("counter: Morphable n=%d", n)
		}
		f := Format(r.get(2))
		major := r.get(64)
		switch f {
		case FormatMorphUniform:
			for i := range vals {
				vals[i] = major + r.get(3)
			}
		case FormatMorphZCC:
			count := int(r.get(5))
			if count > morphZCCMaxNonBase {
				return nil, 0, fmt.Errorf("counter: ZCC count %d out of range", count)
			}
			for i := range vals {
				vals[i] = major
			}
			for k := 0; k < count; k++ {
				idx := int(r.get(7))
				minor := r.get(7)
				if idx >= n {
					return nil, 0, fmt.Errorf("counter: ZCC index %d out of range", idx)
				}
				vals[idx] = major + minor
			}
		default:
			return nil, 0, fmt.Errorf("counter: bad Morphable format tag %d", f)
		}
		return vals, f, nil
	default:
		return nil, 0, fmt.Errorf("counter: unknown scheme %v", scheme)
	}
}

func minOf(vals []uint64) uint64 {
	if len(vals) == 0 {
		return 0
	}
	min := vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
	}
	return min
}
