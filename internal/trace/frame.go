// Binary replay framing: the body of an RMTR file and of an rmccd replay
// request.
//
// A streaming replay endpoint needs to decode and apply input in bounded
// batches without buffering the whole body, so accesses travel in
// length-prefixed frames:
//
//	frame := payload-len u32 LE | access-count u32 LE | payload
//	payload := access-count × (flags u8 | addr-delta varint)
//
// flags bit0 = write, bits 1..7 = gap, and the address-delta predictor
// runs across frame boundaries. A body is a plain concatenation of
// frames; EOF at a frame boundary is the clean end of stream. A trace
// file is a header (trace.go) followed by such a body, so uploading a
// file re-encodes nothing.
//
// Limits are part of the format: a decoder rejects frames whose header
// declares more than MaxFramePayload bytes or MaxFrameAccesses accesses
// before reading the payload, so a hostile 4 GiB length prefix costs
// nothing. All decode failures are typed — ErrFrameTooLarge for limit
// violations, ErrFrameCorrupt for truncation, trailing bytes, or
// malformed varints — never panics (FuzzDecodeFrame enforces this).
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"rmcc/internal/workload"
)

const (
	// frameHeaderLen is the fixed frame prefix: payload-len + access-count.
	frameHeaderLen = 8
	// MaxFramePayload caps one frame's encoded payload (1 MiB).
	MaxFramePayload = 1 << 20
	// MaxFrameAccesses caps one frame's access count. The worst-case
	// record is 11 bytes (flags + 10-byte varint), so a full frame still
	// fits MaxFramePayload.
	MaxFrameAccesses = 1 << 16
	// DefaultFrameAccesses is the writer's default batch size: big enough
	// to amortize the 8-byte header and the receiver's per-frame
	// bookkeeping, small enough for chunk-granular backpressure.
	DefaultFrameAccesses = 4096
)

// ErrFrameTooLarge rejects frames whose header exceeds the format limits.
var ErrFrameTooLarge = errors.New("trace: frame exceeds format limits")

// ErrFrameCorrupt rejects truncated or malformed frames.
var ErrFrameCorrupt = errors.New("trace: corrupt frame")

// FrameWriter encodes accesses into length-prefixed RMTR frames. Append
// buffers into the current frame and emits it as one Write when the
// batch size is reached; Flush emits a pending partial frame. The zero
// batch size selects DefaultFrameAccesses.
type FrameWriter struct {
	w        io.Writer
	batch    int
	count    uint32
	prevAddr uint64
	total    uint64
	// buf holds the frame under construction: 8 reserved header bytes
	// followed by the encoded payload, written in a single call so the
	// writer composes with unbuffered sinks (pipes, sockets).
	buf []byte
}

// NewFrameWriter frames accesses onto w in batches of batch accesses
// (clamped to [1, MaxFrameAccesses]; 0 means DefaultFrameAccesses).
func NewFrameWriter(w io.Writer, batch int) *FrameWriter {
	if batch <= 0 {
		batch = DefaultFrameAccesses
	}
	if batch > MaxFrameAccesses {
		batch = MaxFrameAccesses
	}
	return &FrameWriter{
		w:     w,
		batch: batch,
		buf:   make([]byte, frameHeaderLen, frameHeaderLen+batch*(binary.MaxVarintLen64+1)),
	}
}

// Append encodes one access into the current frame, emitting the frame
// when the batch fills. Gaps above 127 are clamped: the format stores 7
// bits.
func (fw *FrameWriter) Append(a workload.Access) error {
	gap := a.Gap
	if gap > 127 {
		gap = 127
	}
	flags := gap << 1
	if a.Write {
		flags |= 1
	}
	fw.buf = append(fw.buf, flags)
	fw.buf = binary.AppendVarint(fw.buf, int64(a.Addr)-int64(fw.prevAddr))
	fw.prevAddr = a.Addr
	fw.count++
	fw.total++
	if int(fw.count) >= fw.batch {
		return fw.Flush()
	}
	return nil
}

// Count returns the total accesses appended across all frames.
func (fw *FrameWriter) Count() uint64 { return fw.total }

// Flush emits the pending frame, if any. Call after the last Append;
// an empty pending frame is a no-op (frames never carry zero accesses).
func (fw *FrameWriter) Flush() error {
	if fw.count == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(fw.buf[0:4], uint32(len(fw.buf)-frameHeaderLen))
	binary.LittleEndian.PutUint32(fw.buf[4:8], fw.count)
	_, err := fw.w.Write(fw.buf)
	fw.buf = fw.buf[:frameHeaderLen]
	fw.count = 0
	return err
}

// FrameReader decodes a frame stream. The payload buffer and delta
// predictor persist across frames, so steady-state decoding performs
// zero allocations (TestDecodeFrameAllocFree).
type FrameReader struct {
	r        io.Reader
	prevAddr uint64
	hdr      [frameHeaderLen]byte
	payload  []byte
}

// NewFrameReader decodes frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// DecodeInto reads the next frame and decodes it into dst's backing
// array, returning the decoded batch (len = the frame's access count).
// io.EOF signals a clean end of stream at a frame boundary; every other
// failure wraps ErrFrameTooLarge or ErrFrameCorrupt.
func (fr *FrameReader) DecodeInto(dst []workload.Access) ([]workload.Access, error) {
	dst = dst[:0]
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return dst, io.EOF
		}
		return dst, fmt.Errorf("%w: truncated frame header: %v", ErrFrameCorrupt, err)
	}
	payloadLen := binary.LittleEndian.Uint32(fr.hdr[0:4])
	count := binary.LittleEndian.Uint32(fr.hdr[4:8])
	if payloadLen > MaxFramePayload {
		return dst, fmt.Errorf("%w: payload %d bytes (cap %d)", ErrFrameTooLarge, payloadLen, MaxFramePayload)
	}
	if count > MaxFrameAccesses {
		return dst, fmt.Errorf("%w: %d accesses (cap %d)", ErrFrameTooLarge, count, MaxFrameAccesses)
	}
	if count == 0 {
		return dst, fmt.Errorf("%w: zero-access frame", ErrFrameCorrupt)
	}
	if payloadLen < 2*count {
		// Every record is at least two bytes; reject before reading.
		return dst, fmt.Errorf("%w: %d-byte payload cannot hold %d accesses", ErrFrameCorrupt, payloadLen, count)
	}
	if cap(fr.payload) < int(payloadLen) {
		fr.payload = make([]byte, payloadLen)
	}
	fr.payload = fr.payload[:payloadLen]
	if _, err := io.ReadFull(fr.r, fr.payload); err != nil {
		return dst, fmt.Errorf("%w: truncated frame payload: %v", ErrFrameCorrupt, err)
	}
	off := 0
	for i := uint32(0); i < count; i++ {
		if off >= len(fr.payload) {
			return dst, fmt.Errorf("%w: payload ends at access %d of %d", ErrFrameCorrupt, i, count)
		}
		flags := fr.payload[off]
		off++
		delta, n := binary.Varint(fr.payload[off:])
		if n <= 0 {
			return dst, fmt.Errorf("%w: bad addr delta at access %d", ErrFrameCorrupt, i)
		}
		off += n
		addr := uint64(int64(fr.prevAddr) + delta)
		fr.prevAddr = addr
		dst = append(dst, workload.Access{Addr: addr, Write: flags&1 != 0, Gap: flags >> 1})
	}
	if off != len(fr.payload) {
		return dst, fmt.Errorf("%w: %d trailing payload bytes", ErrFrameCorrupt, len(fr.payload)-off)
	}
	return dst, nil
}
