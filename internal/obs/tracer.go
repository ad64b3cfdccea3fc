package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// EventKind classifies one per-access lifecycle event emitted by the
// engine, the memoization tables, or the fault campaign.
type EventKind uint8

// Event kinds. V1/V2 payloads are kind-specific and documented per kind in
// docs/OBSERVABILITY.md.
const (
	// EvCtrCacheHit: the access's L0 counter block was resident.
	// Addr = data address, V1 = counter value, V2 = 1 for writes.
	EvCtrCacheHit EventKind = iota
	// EvCtrCacheMiss: the L0 counter block had to come from DRAM.
	// Addr = data address, V1 = counter value, V2 = 1 for writes.
	EvCtrCacheMiss
	// EvMemoHit: a memoization-table lookup served a stored AES result.
	// Addr = data address, V1 = counter value, V2 = hit source
	// (1 = group, 2 = MRU).
	EvMemoHit
	// EvMemoMiss: a memoization-table lookup missed.
	// Addr = data address, V1 = counter value.
	EvMemoMiss
	// EvMemoInsert: the table installed a new memoized counter-value
	// group. Addr = table id (0 = L0, 1 = L1), V1 = group start value,
	// V2 = table max before the insertion (so V1-V2 is the insertion
	// offset the leakage analyzer bins).
	EvMemoInsert
	// EvEpochRollover: a memoization table crossed its epoch boundary.
	// Addr = table id, V1 = completed epoch ordinal, V2 = remaining budget
	// (blocks, truncated).
	EvEpochRollover
	// EvBudgetSpend: overhead traffic was charged to the epoch budget.
	// Addr = table id, V1 = blocks charged, V2 = remaining (truncated).
	EvBudgetSpend
	// EvBudgetDenied: a budget charge was refused for lack of budget.
	// Addr = table id, V1 = blocks requested, V2 = remaining (truncated).
	EvBudgetDenied
	// EvOSMUpdate: a counter write raised its level's observed-max
	// register (§IV-D2); every counter level has one. Addr = level (0 =
	// data OSM, l >= 1 = tree level), V1 = new max.
	EvOSMUpdate
	// EvFaultInjected: the fault campaign corrupted state. Addr = target
	// address (or index), V1 = fault kind ordinal.
	EvFaultInjected
	// EvFaultDetected: the engine recorded an integrity violation.
	// Addr = violation address, V1 = violation kind ordinal, V2 = 1 when
	// recovered in-line.
	EvFaultDetected
	// EvFaultRecovered: a violation was repaired (retry, re-fill, or
	// re-key escalation). Addr = violation address, V1 = violation kind.
	EvFaultRecovered
	// EvRekey: the whole-memory re-key/reboot ran. V1 = new key epoch.
	EvRekey

	numEventKinds
)

// NumEventKinds is the number of event kinds, for sizing per-kind arrays.
const NumEventKinds = int(numEventKinds)

// String names the kind (stable: part of the trace schema).
func (k EventKind) String() string {
	switch k {
	case EvCtrCacheHit:
		return "ctr-cache-hit"
	case EvCtrCacheMiss:
		return "ctr-cache-miss"
	case EvMemoHit:
		return "memo-hit"
	case EvMemoMiss:
		return "memo-miss"
	case EvMemoInsert:
		return "memo-insert"
	case EvEpochRollover:
		return "epoch-rollover"
	case EvBudgetSpend:
		return "budget-spend"
	case EvBudgetDenied:
		return "budget-denied"
	case EvOSMUpdate:
		return "osm-update"
	case EvFaultInjected:
		return "fault-injected"
	case EvFaultDetected:
		return "fault-detected"
	case EvFaultRecovered:
		return "fault-recovered"
	case EvRekey:
		return "rekey"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one recorded lifecycle event. Seq is the global emission
// ordinal (0-based), so after wraparound the retained window is
// [Total-Len, Total).
type Event struct {
	Seq    uint64
	Kind   EventKind
	Addr   uint64
	V1, V2 uint64
}

// Tracer records events into a fixed-size ring buffer: the newest Cap
// events are retained, per-kind totals are kept for the whole run. Emit is
// allocation-free (an index store into preallocated storage). Nil-safe:
// Emit on a nil *Tracer is a no-op, which is the disabled state — the
// engine carries a nil tracer unless one is attached.
//
// The tracer is NOT safe for concurrent emitters; it belongs to a single
// simulation (the engine itself is documented single-threaded). Parallel
// sweeps attach one tracer per run or none.
type Tracer struct {
	buf    []Event
	next   uint64 // total events emitted
	counts [numEventKinds]uint64
	sink   EventSink
}

// EventSink receives every event a tracer records, synchronously from
// Emit. Implementations must not allocate or block if they sit on a hot
// path (the sidechannel leakage analyzer is the canonical consumer); they
// must not call back into the tracer.
type EventSink interface {
	OnEvent(Event)
}

// DefaultTracerCap is the default ring capacity (64 Ki events ≈ 2.5 MiB).
const DefaultTracerCap = 64 << 10

// NewTracer builds a tracer retaining the newest capacity events
// (DefaultTracerCap when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCap
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// SetSink attaches a synchronous per-event consumer (nil detaches). The
// detached state is the default and adds no work to Emit beyond one nil
// check.
func (t *Tracer) SetSink(s EventSink) {
	if t == nil {
		return
	}
	t.sink = s
}

// Emit records one event. No-op on a nil tracer.
func (t *Tracer) Emit(kind EventKind, addr, v1, v2 uint64) {
	if t == nil {
		return
	}
	e := &t.buf[t.next%uint64(len(t.buf))]
	e.Seq = t.next
	e.Kind = kind
	e.Addr = addr
	e.V1 = v1
	e.V2 = v2
	t.next++
	t.counts[kind]++
	if t.sink != nil {
		t.sink.OnEvent(*e)
	}
}

// Total returns the number of events emitted over the tracer's lifetime
// (including ones the ring has since overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.next
}

// Len returns the number of events currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.next < uint64(len(t.buf)) {
		return int(t.next)
	}
	return len(t.buf)
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// CountByKind returns the lifetime emission count for kind.
func (t *Tracer) CountByKind(kind EventKind) uint64 {
	if t == nil || kind >= numEventKinds {
		return 0
	}
	return t.counts[kind]
}

// Events returns the retained events oldest-first (a copy).
func (t *Tracer) Events() []Event {
	n := t.Len()
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	start := t.next - uint64(n)
	for s := start; s < t.next; s++ {
		out = append(out, t.buf[s%uint64(len(t.buf))])
	}
	return out
}

// WriteJSONL writes the retained events as JSON Lines (one event object
// per line, oldest first), preceded by no header — the schema is
// documented in docs/OBSERVABILITY.md. Deterministic for a given event
// sequence.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Events() {
		if _, err := fmt.Fprintf(bw,
			`{"seq":%d,"kind":%q,"addr":%d,"v1":%d,"v2":%d}`+"\n",
			e.Seq, e.Kind.String(), e.Addr, e.V1, e.V2); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the retained events as JSON Lines to path ("-" for
// stdout).
func (t *Tracer) WriteFile(path string) error {
	if path == "-" {
		return t.WriteJSONL(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := t.WriteJSONL(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
