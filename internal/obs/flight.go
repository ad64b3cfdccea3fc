package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"

	"rmcc/internal/snapshot"
)

// This file is the record store of the observability layer: a flight
// recorder. It continuously captures the last window of finished spans,
// sampled tracer events, and warn+ log lines into one fixed-size binary
// ring — zero steady-state allocations, bounded memory. It is the only
// place a process keeps finished spans: SpanTracer writes into it and
// reads /debug/tracez back out of it, and the ring serializes on demand
// (Dump) or on a timer to a durable file (tmp+fsync+rename via
// internal/snapshot), so a SIGKILL'd, panicking, or fault-wedged node
// leaves a postmortem the recovery path can read.
//
// Records are framed [kind u8][len u16][payload] and written oldest-first;
// appending evicts whole records from the head until the new one fits, so
// the ring contents are always a valid record sequence and Dump never has
// to resynchronize. All payload integers are little-endian, matching
// internal/snapshot and the RMTR wire.

// Flight dump format identifiers.
const (
	flightMagic = "RMCCFLT1"
	// FlightVersion is the dump format version. Version 2 stores a log
	// record's level as the int8 of its slog.Level.
	FlightVersion = 2
)

// Flight record kinds (the u8 frame tag).
const (
	flightKindSpan  = 1
	flightKindEvent = 2
	flightKindLog   = 3
)

// Payload truncation caps. Strings beyond these are cut at record time so
// one oversized detail cannot evict the whole window.
const (
	flightMaxName   = 255
	flightMaxDetail = 1024
	flightMaxLine   = 2048
)

// flightSpanFixed is the fixed-width prefix of a span payload:
// traceHi, traceLo, id, parent, remote, start, duration.
const flightSpanFixed = 7 * 8

// DefaultFlightCap is the default flight ring size (1 MiB ≈ the last
// ~10k spans with typical name/detail lengths).
const DefaultFlightCap = 1 << 20

// ErrFlightCorrupt is the typed decode error for damaged or truncated
// flight dumps. The reader never panics: any structural problem — bad
// magic, impossible lengths, a cut-off record — surfaces as an error
// wrapping this.
var ErrFlightCorrupt = errors.New("flight dump corrupt")

// ErrFlightVersion marks a dump written by an unknown format version.
var ErrFlightVersion = errors.New("flight dump version unsupported")

// FlightRecorder is the in-memory ring. Safe for concurrent recording
// from handler goroutines, the span tracer, and AttachFlight's log tee.
// Nil-safe: every method on a nil recorder is a no-op.
type FlightRecorder struct {
	node string

	mu      sync.Mutex
	buf     []byte
	start   int // offset of the oldest valid byte
	size    int // valid bytes
	seq     uint64
	dropped uint64
	spans   uint64 // lifetime span records
	scratch [flightSpanFixed + 8]byte
}

// NewFlightRecorder builds a recorder whose ring holds capacity bytes
// (DefaultFlightCap when capacity <= 0). node tags dumps with the
// recording process's identity.
func NewFlightRecorder(capacity int, node string) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &FlightRecorder{node: node, buf: make([]byte, capacity)}
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
	return len(f.buf)
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
	plen := flightSpanFixed + 1 + len(name) + 2 + len(detail)
	f.mu.Lock()
	w, ok := f.reserve(flightKindSpan, plen)
	if !ok {
		f.mu.Unlock()
		return
	}
	s := f.scratch[:flightSpanFixed]
	binary.LittleEndian.PutUint64(s[0:], r.TraceHi)
	binary.LittleEndian.PutUint64(s[8:], r.TraceLo)
	binary.LittleEndian.PutUint64(s[16:], r.ID)
	binary.LittleEndian.PutUint64(s[24:], r.Parent)
	binary.LittleEndian.PutUint64(s[32:], r.Remote)
	binary.LittleEndian.PutUint64(s[40:], uint64(r.Start))
	binary.LittleEndian.PutUint64(s[48:], uint64(r.Duration))
	w = f.put(w, s)
	f.scratch[0] = byte(len(name))
	w = f.put(w, f.scratch[:1])
	w = f.putStr(w, name)
	binary.LittleEndian.PutUint16(f.scratch[:2], uint16(len(detail)))
	w = f.put(w, f.scratch[:2])
	f.putStr(w, detail)
	f.mu.Unlock()
}

// RecordEvent captures one tracer event — the fault campaign's injection
// and detection hooks are the canonical feed. Allocation-free.
func (f *FlightRecorder) RecordEvent(e Event) {
	if f == nil {
		return
	}
	const plen = 8 + 1 + 3*8
	f.mu.Lock()
	w, ok := f.reserve(flightKindEvent, plen)
	if !ok {
		f.mu.Unlock()
		return
	}
	s := f.scratch[:plen]
	binary.LittleEndian.PutUint64(s[0:], e.Seq)
	s[8] = byte(e.Kind)
	binary.LittleEndian.PutUint64(s[9:], e.Addr)
	binary.LittleEndian.PutUint64(s[17:], e.V1)
	binary.LittleEndian.PutUint64(s[25:], e.V2)
	f.put(w, s)
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
	plen := 8 + 1 + len(line)
	f.mu.Lock()
	w, ok := f.reserve(flightKindLog, plen)
	if !ok {
		f.mu.Unlock()
		return
	}
	s := f.scratch[:9]
	binary.LittleEndian.PutUint64(s[0:], uint64(tsNS))
	s[8] = byte(int8(level))
	w = f.put(w, s)
	f.put(w, line)
	f.mu.Unlock()
}

// reserve evicts records until frameLen(plen) bytes fit, writes the frame
// header, counts the record, and returns the ring offset where the
// payload starts. Returns ok=false when the record can never fit. Caller
// holds f.mu.
func (f *FlightRecorder) reserve(kind byte, plen int) (int, bool) {
	total := 3 + plen
	if total > len(f.buf) {
		f.dropped++
		return 0, false
	}
	for len(f.buf)-f.size < total {
		f.evictOne()
	}
	w := (f.start + f.size) % len(f.buf)
	f.scratch[0] = kind
	binary.LittleEndian.PutUint16(f.scratch[1:3], uint16(plen))
	w = f.put(w, f.scratch[:3])
	f.size += total
	f.seq++
	if kind == flightKindSpan {
		f.spans++
	}
	return w, true
}

// evictOne drops the oldest record. Caller holds f.mu and guarantees the
// ring is non-empty (size >= 3 whenever size > 0, by construction).
func (f *FlightRecorder) evictOne() {
	h := (f.start + 1) % len(f.buf)
	lo := uint16(f.buf[h])
	h = (h + 1) % len(f.buf)
	hi := uint16(f.buf[h])
	rec := 3 + int(lo|hi<<8)
	f.start = (f.start + rec) % len(f.buf)
	f.size -= rec
	f.dropped++
}

// put copies b into the ring at offset w (wrapping) and returns the
// offset just past it. Caller holds f.mu.
func (f *FlightRecorder) put(w int, b []byte) int {
	n := copy(f.buf[w:], b)
	if n < len(b) {
		copy(f.buf, b[n:])
	}
	return (w + len(b)) % len(f.buf)
}

// putStr is put for string payloads (copy from a string compiles to the
// same memmove, no conversion allocation).
func (f *FlightRecorder) putStr(w int, s string) int {
	n := copy(f.buf[w:], s)
	if n < len(s) {
		copy(f.buf, s[n:])
	}
	return (w + len(s)) % len(f.buf)
}

// Dump serializes the recorder: a header (magic, version, node, lifetime
// counters) followed by the retained record window, oldest first. The
// ring is locked for the duration; Dump itself allocates only the
// linearized copy.
func (f *FlightRecorder) Dump(w io.Writer) error {
	if f == nil {
		return errors.New("no flight recorder")
	}
	f.mu.Lock()
	hdr := make([]byte, 0, 8+4+2+len(f.node)+8+8+4)
	hdr = append(hdr, flightMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, FlightVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(f.node)))
	hdr = append(hdr, f.node...)
	hdr = binary.LittleEndian.AppendUint64(hdr, f.seq)
	hdr = binary.LittleEndian.AppendUint64(hdr, f.dropped)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(f.size))
	body := f.body()
	f.mu.Unlock()
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// body returns a linearized copy of the retained records, oldest first.
// Caller holds f.mu.
func (f *FlightRecorder) body() []byte {
	body := make([]byte, f.size)
	n := copy(body, f.buf[f.start:])
	if n < f.size {
		copy(body[n:], f.buf[:f.size-n])
	}
	return body
}

// Spans returns the retained spans, oldest first (nil on nil). The ring
// is locked only for the copy; decoding runs outside it.
func (f *FlightRecorder) Spans() []SpanRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	body := f.body()
	f.mu.Unlock()
	var d FlightDump
	// The ring only ever holds whole, well-framed records, so decoding its
	// own bytes cannot fail.
	_ = d.decodeBody(body)
	return d.Spans
}

// DumpToFile writes the dump durably (tmp+fsync+rename) at path.
func (f *FlightRecorder) DumpToFile(path string) error {
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		return err
	}
	return snapshot.WriteFileDurable(path, buf.Bytes())
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

// ReadFlightDump decodes a dump produced by Dump. It never panics:
// malformed input yields ErrFlightCorrupt / ErrFlightVersion wrapped
// errors, and the input size is bounded by the declared body length.
func ReadFlightDump(r io.Reader) (*FlightDump, error) {
	var fixed [8 + 4 + 2]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFlightCorrupt, err)
	}
	if string(fixed[:8]) != flightMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrFlightCorrupt)
	}
	if v := binary.LittleEndian.Uint32(fixed[8:12]); v != FlightVersion {
		return nil, fmt.Errorf("%w: version %d", ErrFlightVersion, v)
	}
	nodeLen := int(binary.LittleEndian.Uint16(fixed[12:14]))
	rest := make([]byte, nodeLen+8+8+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFlightCorrupt, err)
	}
	d := &FlightDump{
		Node:    string(rest[:nodeLen]),
		Records: binary.LittleEndian.Uint64(rest[nodeLen:]),
		Dropped: binary.LittleEndian.Uint64(rest[nodeLen+8:]),
	}
	bodyLen := binary.LittleEndian.Uint32(rest[nodeLen+16:])
	const maxBody = 1 << 30
	if bodyLen > maxBody {
		return nil, fmt.Errorf("%w: body length %d", ErrFlightCorrupt, bodyLen)
	}
	body, err := io.ReadAll(io.LimitReader(r, int64(bodyLen)))
	if err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrFlightCorrupt, err)
	}
	if len(body) != int(bodyLen) {
		return nil, fmt.Errorf("%w: body truncated at %d of %d bytes", ErrFlightCorrupt, len(body), bodyLen)
	}
	if err := d.decodeBody(body); err != nil {
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
