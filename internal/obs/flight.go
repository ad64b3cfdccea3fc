package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file is the record store of the observability layer: a flight
// recorder. It continuously captures the last window of finished spans,
// sampled tracer events, and warn+ log lines into one fixed-size binary
// ring — zero steady-state allocations, bounded memory. It is the only
// place a process keeps finished spans: SpanTracer writes into it and
// reads /debug/tracez back out of it.
//
// The recorder's memory is its dump: one image holding a header and then
// the raw ring, which Dump copies out as is. OpenFlightFile maps that
// image onto a file, so a SIGKILL'd, panicking, or fault-wedged node
// leaves a postmortem the recovery path can read without any flush.
//
// Records are framed [kind u8][len u16][payload]; appending evicts whole
// records from the head until the new one fits, so the window is always a
// valid record sequence. All integers are little-endian, matching
// internal/snapshot and the RMTR wire.

// Flight image format identifiers.
const (
	flightMagic = "RMCCFLT1"
	// FlightVersion is the image format version. Version 3 is the
	// recorder's own memory: the fixed header below, then the whole ring
	// with the valid window named by one header word.
	FlightVersion = 3
)

// Flight image header offsets:
//
//	 0  magic "RMCCFLT1"
//	 8  version u32
//	12  ring capacity u32
//	16  lifetime records u64
//	24  lifetime dropped records u64
//	32  window u64: start<<32 | size of the valid bytes in the ring
//	40  node length u16, then the node name
//
// The ring starts at the next multiple of 8 after the node name.
const (
	flightOffCap     = 12
	flightOffRecords = 16
	flightOffDropped = 24
	flightOffWindow  = 32
	flightOffNode    = 40
)

// flightHeaderLen is the image header length for a node name of nodeLen
// bytes.
func flightHeaderLen(nodeLen int) int { return (flightOffNode + 2 + nodeLen + 7) &^ 7 }

// Flight record kinds (the u8 frame tag).
const (
	flightKindSpan  = 1
	flightKindEvent = 2
	flightKindLog   = 3
)

// Payload truncation caps. Strings beyond these are cut at record time so
// one oversized detail cannot evict the whole window; the node name is
// cut to flightMaxName as well.
const (
	flightMaxName   = 255
	flightMaxDetail = 1024
	flightMaxLine   = 2048
)

// flightSpanFixed is the fixed-width prefix of a span payload:
// traceHi, traceLo, id, parent, remote, start, duration.
const flightSpanFixed = 7 * 8

// flightMaxFrame is the longest framed record: a log line at its cap.
const flightMaxFrame = 3 + 8 + 1 + flightMaxLine

// DefaultFlightCap is the default flight ring size (1 MiB ≈ the last
// ~10k spans with typical name/detail lengths).
const DefaultFlightCap = 1 << 20

// flightMaxCap bounds the ring capacity, for recorders and for the
// images the reader accepts.
const flightMaxCap = 1 << 30

// ErrFlightCorrupt is the typed decode error for damaged or truncated
// flight dumps. The reader never panics: any structural problem — bad
// magic, impossible lengths, a cut-off record — surfaces as an error
// wrapping this.
var ErrFlightCorrupt = errors.New("flight dump corrupt")

// ErrFlightVersion marks a dump written by an unknown format version.
var ErrFlightVersion = errors.New("flight dump version unsupported")

// FlightRecorder is the ring and its image. Safe for concurrent recording
// from handler goroutines, the span tracer, and AttachFlight's log tee.
// Nil-safe: every method on a nil recorder is a no-op.
type FlightRecorder struct {
	node string
	file *os.File // backs img for a recorder from OpenFlightFile

	mu      sync.Mutex
	img     []byte // header, then ring
	ring    []byte
	start   int // offset of the oldest valid byte
	size    int // valid bytes
	seq     uint64
	dropped uint64
	spans   uint64 // lifetime span records
	scratch [flightMaxFrame]byte
}

// NewFlightRecorder builds a recorder on the heap whose ring holds
// capacity bytes (DefaultFlightCap when capacity <= 0, at most 1 GiB).
// node tags dumps with the recording process's identity.
func NewFlightRecorder(capacity int, node string) *FlightRecorder {
	capacity, node = flightLimits(capacity, node)
	return newFlightRecorder(make([]byte, flightHeaderLen(len(node))+capacity), capacity, node)
}

// flightLimits applies the capacity default and caps and the node cap.
func flightLimits(capacity int, node string) (int, string) {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	if len(node) > flightMaxName {
		node = node[:flightMaxName]
	}
	return min(capacity, flightMaxCap), node
}

// newFlightRecorder lays an empty image into img, which holds the header
// for node followed by capacity ring bytes and starts 8-byte aligned.
func newFlightRecorder(img []byte, capacity int, node string) *FlightRecorder {
	copy(img, flightMagic)
	binary.LittleEndian.PutUint32(img[8:], FlightVersion)
	binary.LittleEndian.PutUint32(img[flightOffCap:], uint32(capacity))
	binary.LittleEndian.PutUint16(img[flightOffNode:], uint16(len(node)))
	copy(img[flightOffNode+2:], node)
	f := &FlightRecorder{node: node, img: img, ring: img[len(img)-capacity:]}
	f.publish()
	return f
}

// Node returns the recorder's node tag ("" on nil).
func (f *FlightRecorder) Node() string {
	if f == nil {
		return ""
	}
	return f.node
}

// Records returns the lifetime record count (0 on nil).
func (f *FlightRecorder) Records() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// SpanTotal returns the lifetime span record count (0 on nil).
func (f *FlightRecorder) SpanTotal() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.spans
}

// Dropped returns how many records have been evicted from the ring to
// make room for newer ones, or refused because they could never fit
// (0 on nil). This is the process's one dropped-records count.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// Bytes returns the valid byte count currently retained (0 on nil).
func (f *FlightRecorder) Bytes() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Cap returns the ring capacity in bytes (0 on nil).
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// RecordSpan captures a finished span. Allocation-free; SpanTracer calls
// it once per completed span.
func (f *FlightRecorder) RecordSpan(r SpanRecord) {
	if f == nil {
		return
	}
	name, detail := r.Name, r.Detail
	if len(name) > flightMaxName {
		name = name[:flightMaxName]
	}
	if len(detail) > flightMaxDetail {
		detail = detail[:flightMaxDetail]
	}
	f.mu.Lock()
	s := f.scratch[3:]
	binary.LittleEndian.PutUint64(s[0:], r.TraceHi)
	binary.LittleEndian.PutUint64(s[8:], r.TraceLo)
	binary.LittleEndian.PutUint64(s[16:], r.ID)
	binary.LittleEndian.PutUint64(s[24:], r.Parent)
	binary.LittleEndian.PutUint64(s[32:], r.Remote)
	binary.LittleEndian.PutUint64(s[40:], uint64(r.Start))
	binary.LittleEndian.PutUint64(s[48:], uint64(r.Duration))
	s[flightSpanFixed] = byte(len(name))
	n := flightSpanFixed + 1 + copy(s[flightSpanFixed+1:], name)
	binary.LittleEndian.PutUint16(s[n:], uint16(len(detail)))
	n += 2 + copy(s[n+2:], detail)
	f.add(flightKindSpan, n)
	f.mu.Unlock()
}

// RecordEvent captures one tracer event — the fault campaign's injection
// and detection hooks are the canonical feed. Allocation-free.
func (f *FlightRecorder) RecordEvent(e Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	s := f.scratch[3:]
	binary.LittleEndian.PutUint64(s[0:], e.Seq)
	s[8] = byte(e.Kind)
	binary.LittleEndian.PutUint64(s[9:], e.Addr)
	binary.LittleEndian.PutUint64(s[17:], e.V1)
	binary.LittleEndian.PutUint64(s[25:], e.V2)
	f.add(flightKindEvent, 8+1+3*8)
	f.mu.Unlock()
}

// OnEvent lets the recorder sit as a Tracer sink (obs.EventSink), so a
// campaign-instrumented tracer streams its events into the crash ring.
func (f *FlightRecorder) OnEvent(e Event) { f.RecordEvent(e) }

// RecordLog captures one log line (the warn+ feed from AttachFlight). A
// trailing newline is stripped; long lines truncate. Allocation-free.
func (f *FlightRecorder) RecordLog(tsNS int64, level slog.Level, line []byte) {
	if f == nil {
		return
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if len(line) > flightMaxLine {
		line = line[:flightMaxLine]
	}
	f.mu.Lock()
	s := f.scratch[3:]
	binary.LittleEndian.PutUint64(s[0:], uint64(tsNS))
	s[8] = byte(int8(level))
	f.add(flightKindLog, 9+copy(s[9:], line))
	f.mu.Unlock()
}

// add frames the plen-byte payload in f.scratch[3:] as a kind record
// and adds it to the ring, evicting the oldest records until it fits;
// a record that can never fit is counted as dropped. Caller holds f.mu.
func (f *FlightRecorder) add(kind byte, plen int) {
	rec := f.scratch[:3+plen]
	if len(rec) > len(f.ring) {
		f.dropped++
		f.publish()
		return
	}
	if len(f.ring)-f.size < len(rec) {
		for len(f.ring)-f.size < len(rec) {
			f.evictOne()
		}
		// The evicted bytes leave the window before they are overwritten.
		f.publish()
	}
	rec[0] = kind
	binary.LittleEndian.PutUint16(rec[1:3], uint16(plen))
	w := (f.start + f.size) % len(f.ring)
	if n := copy(f.ring[w:], rec); n < len(rec) {
		copy(f.ring, rec[n:])
	}
	f.size += len(rec)
	f.seq++
	if kind == flightKindSpan {
		f.spans++
	}
	// The record joins the window only once all its bytes are in place.
	f.publish()
}

// evictOne drops the oldest record. Caller holds f.mu and guarantees the
// ring is non-empty (size >= 3 whenever size > 0, by construction).
func (f *FlightRecorder) evictOne() {
	h := (f.start + 1) % len(f.ring)
	lo := uint16(f.ring[h])
	h = (h + 1) % len(f.ring)
	hi := uint16(f.ring[h])
	rec := 3 + int(lo|hi<<8)
	f.start = (f.start + rec) % len(f.ring)
	f.size -= rec
	f.dropped++
}

// publish writes the counters and then the window into the image header.
// The window is one aligned word set by a single atomic store, and it is
// published only between whole records, so a process killed at any
// instant leaves an image whose window holds whole records. Caller holds
// f.mu.
func (f *FlightRecorder) publish() {
	binary.LittleEndian.PutUint64(f.img[flightOffRecords:], f.seq)
	binary.LittleEndian.PutUint64(f.img[flightOffDropped:], f.dropped)
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(f.start)<<32|uint64(f.size))
	atomic.StoreUint64((*uint64)(unsafe.Pointer(&f.img[flightOffWindow])), binary.NativeEndian.Uint64(w[:]))
}

// Dump writes the recorder's image: the header (magic, version, ring
// capacity, lifetime counters, window, node) and then the raw ring. The
// image is copied under the lock and written after it is released.
func (f *FlightRecorder) Dump(w io.Writer) error {
	if f == nil {
		return errors.New("no flight recorder")
	}
	f.mu.Lock()
	img := append([]byte(nil), f.img...)
	f.mu.Unlock()
	_, err := w.Write(img)
	return err
}

// Sync flushes a recorder from OpenFlightFile to stable storage, so its
// file also survives a host crash; a heap or nil recorder has nothing to
// flush. Records are not blocked while it runs.
func (f *FlightRecorder) Sync() error {
	if f == nil || f.file == nil {
		return nil
	}
	return f.file.Sync()
}

// linearize returns a copy of the size bytes of ring that start at
// offset start, wrapping at the ring's end; size <= len(ring).
func linearize(ring []byte, start, size int) []byte {
	body := make([]byte, size)
	n := copy(body, ring[start:])
	copy(body[n:], ring)
	return body
}

// Spans returns the retained spans, oldest first (nil on nil). The ring
// is locked only for the copy; decoding runs outside it.
func (f *FlightRecorder) Spans() []SpanRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	body := linearize(f.ring, f.start, f.size)
	f.mu.Unlock()
	var d FlightDump
	// The ring only ever holds whole, well-framed records, so decoding its
	// own bytes cannot fail.
	_ = d.decodeBody(body)
	return d.Spans
}

// FlightLog is one decoded log record.
type FlightLog struct {
	TimeNS int64
	Level  slog.Level
	Line   string
}

// FlightDump is a decoded flight-recorder dump.
type FlightDump struct {
	Node    string
	Records uint64 // lifetime records at dump time
	Dropped uint64 // records evicted before the dump
	Spans   []SpanRecord
	Events  []Event
	Logs    []FlightLog
}

// ReadFlightDump decodes an image written by Dump or left in a flight
// file: it checks the header, reads the ring, and decodes the window's
// records oldest first. It never panics: malformed input yields
// ErrFlightCorrupt / ErrFlightVersion wrapped errors, and it allocates no
// more than the input holds.
func ReadFlightDump(r io.Reader) (*FlightDump, error) {
	var hdr [flightOffNode + 2]byte
	if _, err := io.ReadFull(r, hdr[:12]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFlightCorrupt, err)
	}
	if string(hdr[:8]) != flightMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrFlightCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != FlightVersion {
		return nil, fmt.Errorf("%w: version %d", ErrFlightVersion, v)
	}
	if _, err := io.ReadFull(r, hdr[12:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFlightCorrupt, err)
	}
	capacity := uint64(binary.LittleEndian.Uint32(hdr[flightOffCap:]))
	win := binary.LittleEndian.Uint64(hdr[flightOffWindow:])
	start, size := win>>32, win&math.MaxUint32
	if capacity > flightMaxCap {
		return nil, fmt.Errorf("%w: ring capacity %d", ErrFlightCorrupt, capacity)
	}
	if start >= capacity || size > capacity {
		return nil, fmt.Errorf("%w: window start %d size %d in a %d-byte ring", ErrFlightCorrupt, start, size, capacity)
	}
	nodeLen := int(binary.LittleEndian.Uint16(hdr[flightOffNode:]))
	want := flightHeaderLen(nodeLen) - len(hdr) + int(capacity)
	rest, err := io.ReadAll(io.LimitReader(r, int64(want)))
	if err != nil {
		return nil, fmt.Errorf("%w: ring: %v", ErrFlightCorrupt, err)
	}
	if len(rest) != want {
		return nil, fmt.Errorf("%w: image truncated at %d of %d bytes", ErrFlightCorrupt, len(hdr)+len(rest), len(hdr)+want)
	}
	d := &FlightDump{
		Node:    string(rest[:nodeLen]),
		Records: binary.LittleEndian.Uint64(hdr[flightOffRecords:]),
		Dropped: binary.LittleEndian.Uint64(hdr[flightOffDropped:]),
	}
	if err := d.decodeBody(linearize(rest[want-int(capacity):], int(start), int(size))); err != nil {
		return nil, err
	}
	return d, nil
}

// decodeBody appends the records framed in body to d.
func (d *FlightDump) decodeBody(body []byte) error {
	for off := 0; off < len(body); {
		if len(body)-off < 3 {
			return fmt.Errorf("%w: frame header truncated at offset %d", ErrFlightCorrupt, off)
		}
		kind := body[off]
		plen := int(binary.LittleEndian.Uint16(body[off+1 : off+3]))
		off += 3
		if len(body)-off < plen {
			return fmt.Errorf("%w: record truncated at offset %d", ErrFlightCorrupt, off)
		}
		p := body[off : off+plen]
		off += plen
		switch kind {
		case flightKindSpan:
			rec, err := decodeFlightSpan(p)
			if err != nil {
				return err
			}
			d.Spans = append(d.Spans, rec)
		case flightKindEvent:
			if plen != 8+1+3*8 {
				return fmt.Errorf("%w: event record length %d", ErrFlightCorrupt, plen)
			}
			d.Events = append(d.Events, Event{
				Seq:  binary.LittleEndian.Uint64(p[0:]),
				Kind: EventKind(p[8]),
				Addr: binary.LittleEndian.Uint64(p[9:]),
				V1:   binary.LittleEndian.Uint64(p[17:]),
				V2:   binary.LittleEndian.Uint64(p[25:]),
			})
		case flightKindLog:
			if plen < 9 {
				return fmt.Errorf("%w: log record length %d", ErrFlightCorrupt, plen)
			}
			d.Logs = append(d.Logs, FlightLog{
				TimeNS: int64(binary.LittleEndian.Uint64(p[0:])),
				Level:  slog.Level(int8(p[8])),
				Line:   string(p[9:]),
			})
		default:
			return fmt.Errorf("%w: unknown record kind %d", ErrFlightCorrupt, kind)
		}
	}
	return nil
}

func decodeFlightSpan(p []byte) (SpanRecord, error) {
	if len(p) < flightSpanFixed+1 {
		return SpanRecord{}, fmt.Errorf("%w: span record length %d", ErrFlightCorrupt, len(p))
	}
	rec := SpanRecord{
		TraceHi:  binary.LittleEndian.Uint64(p[0:]),
		TraceLo:  binary.LittleEndian.Uint64(p[8:]),
		ID:       binary.LittleEndian.Uint64(p[16:]),
		Parent:   binary.LittleEndian.Uint64(p[24:]),
		Remote:   binary.LittleEndian.Uint64(p[32:]),
		Start:    int64(binary.LittleEndian.Uint64(p[40:])),
		Duration: int64(binary.LittleEndian.Uint64(p[48:])),
	}
	p = p[flightSpanFixed:]
	nameLen := int(p[0])
	p = p[1:]
	if len(p) < nameLen+2 {
		return SpanRecord{}, fmt.Errorf("%w: span name truncated", ErrFlightCorrupt)
	}
	rec.Name = string(p[:nameLen])
	p = p[nameLen:]
	detailLen := int(binary.LittleEndian.Uint16(p[:2]))
	p = p[2:]
	if len(p) != detailLen {
		return SpanRecord{}, fmt.Errorf("%w: span detail truncated", ErrFlightCorrupt)
	}
	rec.Detail = string(p)
	return rec, nil
}
