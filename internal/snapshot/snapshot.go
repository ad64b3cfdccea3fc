// Package snapshot defines the versioned, length-prefixed binary container
// that checkpoints engine and simulator state (ROADMAP item "snapshot/
// restore"; related work treats checkpoint integrity as first-class —
// Osiris-style counter recovery, Anubis-style shadow tracking).
//
// Layout:
//
//	header   magic(8) | format version(u32) | kind(16, zero-padded) | config hash(u64)
//	section  tag(8, zero-padded) | payload length(u64) | CRC32-IEEE(u32) | payload
//	...      (sections in a fixed, kind-defined order)
//
// All integers are little-endian. Readers must see exactly the sections the
// kind defines, in order, followed by EOF. Every decode failure maps onto
// one of three typed errors so callers (and the fuzz target) can classify:
//
//   - ErrSnapshotCorrupt: bad magic, bad CRC, truncation, trailing garbage,
//     or a payload whose internal structure does not decode.
//   - ErrSnapshotVersion: the format version is not FormatVersion.
//   - ErrSnapshotConfigMismatch: the kind or config hash does not match the
//     state the caller is restoring into.
//
// The package is a leaf (stdlib only) so every layer — counter store, cache
// model, memoization table, engine, sim stepper, rmccd — can import it.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
)

// FormatVersion is the current container format. Readers reject any other
// version with ErrSnapshotVersion: section payloads are not cross-version
// compatible (see docs/SNAPSHOTS.md for the compatibility policy). Version
// 2 carries one observed-max register per counter level and cache lines
// as the cache holds them.
const FormatVersion uint32 = 2

var magic = [8]byte{'R', 'M', 'C', 'C', 'S', 'N', 'A', 'P'}

// Typed decode failures. Callers classify with errors.Is.
var (
	// ErrSnapshotCorrupt marks truncated, checksum-failing, or structurally
	// invalid snapshot bytes.
	ErrSnapshotCorrupt = errors.New("snapshot corrupt")
	// ErrSnapshotVersion marks a snapshot written under a different format
	// version.
	ErrSnapshotVersion = errors.New("snapshot format version unsupported")
	// ErrSnapshotConfigMismatch marks a well-formed snapshot of the wrong
	// kind or of state built under a different configuration.
	ErrSnapshotConfigMismatch = errors.New("snapshot config mismatch")
)

// HashString hashes a canonical configuration rendering with FNV-1a; the
// result goes in the header so Load can refuse state from a mismatched
// configuration before touching any section payload.
func HashString(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

const (
	kindBytes = 16
	tagBytes  = 8
)

func padName(s string, n int) ([]byte, error) {
	if len(s) > n {
		return nil, fmt.Errorf("snapshot: name %q longer than %d bytes", s, n)
	}
	b := make([]byte, n)
	copy(b, s)
	return b, nil
}

func unpadName(b []byte) string {
	return string(bytes.TrimRight(b, "\x00"))
}

// Writer emits one snapshot stream: header at construction, then sections,
// then Close. Errors are sticky; Close reports the first one.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter writes the header for a snapshot of the given kind and config
// hash and returns the section writer.
func NewWriter(w io.Writer, kind string, configHash uint64) *Writer {
	sw := &Writer{w: w}
	kb, err := padName(kind, kindBytes)
	if err != nil {
		sw.err = err
		return sw
	}
	var hdr bytes.Buffer
	hdr.Write(magic[:])
	binary.Write(&hdr, binary.LittleEndian, FormatVersion)
	hdr.Write(kb)
	binary.Write(&hdr, binary.LittleEndian, configHash)
	_, sw.err = w.Write(hdr.Bytes())
	return sw
}

// Section appends one tagged, CRC-protected section.
func (sw *Writer) Section(tag string, payload []byte) {
	if sw.err != nil {
		return
	}
	tb, err := padName(tag, tagBytes)
	if err != nil {
		sw.err = err
		return
	}
	var hdr bytes.Buffer
	hdr.Write(tb)
	binary.Write(&hdr, binary.LittleEndian, uint64(len(payload)))
	binary.Write(&hdr, binary.LittleEndian, crc32.ChecksumIEEE(payload))
	if _, err := sw.w.Write(hdr.Bytes()); err != nil {
		sw.err = err
		return
	}
	_, sw.err = sw.w.Write(payload)
}

// Close finishes the stream and reports the first write error.
func (sw *Writer) Close() error { return sw.err }

// Reader consumes a snapshot stream section by section.
type Reader struct {
	r          io.Reader
	configHash uint64
}

// NewReader validates the header: magic (ErrSnapshotCorrupt), format
// version (ErrSnapshotVersion), and kind (ErrSnapshotConfigMismatch). The
// config hash is exposed for the caller to compare against its own state.
func NewReader(r io.Reader, kind string) (*Reader, error) {
	hdr := make([]byte, len(magic)+4+kindBytes+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrSnapshotCorrupt, err)
	}
	if !bytes.Equal(hdr[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	off := len(magic)
	if v := binary.LittleEndian.Uint32(hdr[off:]); v != FormatVersion {
		return nil, fmt.Errorf("%w: got version %d, support %d", ErrSnapshotVersion, v, FormatVersion)
	}
	off += 4
	if got := unpadName(hdr[off : off+kindBytes]); got != kind {
		return nil, fmt.Errorf("%w: snapshot kind %q, want %q", ErrSnapshotConfigMismatch, got, kind)
	}
	off += kindBytes
	return &Reader{r: r, configHash: binary.LittleEndian.Uint64(hdr[off:])}, nil
}

// ConfigHash returns the header's config hash.
func (sr *Reader) ConfigHash() uint64 { return sr.configHash }

// Section reads the next section, which must carry the given tag, and
// returns its CRC-verified payload. The payload is read incrementally
// (io.CopyN into a growing buffer), so a truncated stream claiming a huge
// length fails without allocating the claimed size.
func (sr *Reader) Section(tag string) ([]byte, error) {
	hdr := make([]byte, tagBytes+8+4)
	if _, err := io.ReadFull(sr.r, hdr); err != nil {
		return nil, fmt.Errorf("%w: short section header: %v", ErrSnapshotCorrupt, err)
	}
	if got := unpadName(hdr[:tagBytes]); got != tag {
		return nil, fmt.Errorf("%w: section tag %q, want %q", ErrSnapshotCorrupt, got, tag)
	}
	length := binary.LittleEndian.Uint64(hdr[tagBytes:])
	sum := binary.LittleEndian.Uint32(hdr[tagBytes+8:])
	if length > math.MaxInt64 {
		return nil, fmt.Errorf("%w: section %q length %d", ErrSnapshotCorrupt, tag, length)
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, sr.r, int64(length)); err != nil {
		return nil, fmt.Errorf("%w: section %q truncated: %v", ErrSnapshotCorrupt, tag, err)
	}
	payload := buf.Bytes()
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: section %q CRC %08x, want %08x", ErrSnapshotCorrupt, tag, got, sum)
	}
	return payload, nil
}

// Close verifies the stream ends exactly after the last section.
// io.ReadFull (rather than one Read call) so readers that legally return
// (0, nil) cannot smuggle trailing bytes past the check.
func (sr *Reader) Close() error {
	var b [1]byte
	switch _, err := io.ReadFull(sr.r, b[:]); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("%w: trailing bytes after final section", ErrSnapshotCorrupt)
	default:
		return fmt.Errorf("%w: reading stream tail: %v", ErrSnapshotCorrupt, err)
	}
}

// Enc builds a section payload from primitive values. The zero value is
// ready to use; Reset reuses the backing buffer across sections.
type Enc struct{ buf []byte }

// Reset empties the encoder, keeping its capacity.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Data returns the encoded payload (valid until the next Reset).
func (e *Enc) Data() []byte { return e.buf }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends one byte: 1 for true, 0 for false.
func (e *Enc) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// U64s appends a length-prefixed uint64 slice.
func (e *Enc) U64s(v []uint64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// Bytes appends a length-prefixed byte slice.
func (e *Enc) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Binary appends a length-prefixed encoding/binary little-endian rendering
// of v — for fixed-size stats structs made purely of unsigned integers.
func (e *Enc) Binary(v any) {
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
		// Fixed-size structs of unsigned integers never fail; anything else
		// is a programming error at the encode site.
		panic(fmt.Sprintf("snapshot: unencodable value %T: %v", v, err))
	}
	e.Bytes(b.Bytes())
}

// Dec decodes a section payload written by Enc. Decode errors are sticky:
// after the first failure every accessor returns zero values and Err/Finish
// report ErrSnapshotCorrupt. Slice decoders bound allocations by the bytes
// actually present, so corrupt length prefixes cannot force huge
// allocations.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec wraps a section payload for decoding.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrSnapshotCorrupt}, args...)...)
	}
}

// Failf records a structural decode failure (wrapping ErrSnapshotCorrupt)
// and returns it — for component decoders that detect inconsistencies the
// primitive accessors cannot, like geometry mismatches.
func (d *Dec) Failf(format string, args ...any) error {
	d.fail(format, args...)
	return d.err
}

// Remaining returns the undecoded byte count.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Err returns the first decode failure, if any.
func (d *Dec) Err() error { return d.err }

// Finish returns the first decode failure, or ErrSnapshotCorrupt if the
// payload has undecoded trailing bytes.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrSnapshotCorrupt, len(d.buf)-d.off)
	}
	return nil
}

// U64 decodes a little-endian uint64.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("short payload reading uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 decodes a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 decodes a float64 from its IEEE-754 bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool decodes one byte; any value other than 0 or 1 is corrupt.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Remaining() < 1 {
		d.fail("short payload reading bool")
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail("bool byte %#x", b)
		return false
	}
	return b == 1
}

// U64s decodes a length-prefixed uint64 slice.
func (d *Dec) U64s() []uint64 {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()/8) {
		d.fail("uint64 slice length %d exceeds remaining payload", n)
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	return out
}

// U64sInto decodes a length-prefixed uint64 slice into dst, requiring the
// encoded length to match exactly — the restore-in-place form that both
// avoids allocation and enforces geometry.
func (d *Dec) U64sInto(dst []uint64) {
	n := d.U64()
	if d.err != nil {
		return
	}
	if n != uint64(len(dst)) {
		d.fail("uint64 slice length %d, want %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = d.U64()
	}
}

// Bytes decodes a length-prefixed byte slice as a view into the payload.
func (d *Dec) Bytes() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("byte slice length %d exceeds remaining payload", n)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// String decodes a length-prefixed string.
func (d *Dec) String() string { return string(d.Bytes()) }

// Binary decodes a length-prefixed encoding/binary rendering into v, which
// must be a pointer to the same fixed-size type the Enc.Binary site used.
func (d *Dec) Binary(v any) {
	b := d.Bytes()
	if d.err != nil {
		return
	}
	if err := binary.Read(bytes.NewReader(b), binary.LittleEndian, v); err != nil {
		d.fail("binary payload for %T: %v", v, err)
		return
	}
	if int(binary.Size(v)) != len(b) {
		d.fail("binary payload for %T: %d bytes, want %d", v, len(b), binary.Size(v))
	}
}
