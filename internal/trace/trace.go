// Package trace records workload access streams to a compact binary format
// and replays them as workloads. Traces decouple stream generation from
// simulation — the same stream can drive this simulator twice (e.g. across
// schemes with bit-identical inputs), be diffed across versions, or be
// exported for cross-simulator comparison, the role Pin traces play in the
// paper's methodology.
//
// Format:
//
//	magic "RMTR" | version u8 (2) | name len u8 | name bytes
//	then the frame stream of frame.go
//
// A trace file minus its header is byte for byte an rmccd replay body, so
// uploading one is a verbatim copy. Delta + varint encoding compresses
// typical streams to 2-4 bytes per access (vs 16 raw).
package trace

import (
	"errors"
	"fmt"
	"io"

	"rmcc/internal/workload"
)

const (
	magic   = "RMTR"
	version = 2
)

// Writer streams accesses to an io.Writer: the header, then frames of
// DefaultFrameAccesses accesses. Flush after the last Append.
type Writer struct{ *FrameWriter }

// NewWriter writes the header for a trace of the named workload.
func NewWriter(w io.Writer, name string) (*Writer, error) {
	if len(name) > 255 {
		return nil, fmt.Errorf("trace: name too long")
	}
	head := append([]byte(magic), version, byte(len(name)))
	if _, err := w.Write(append(head, name...)); err != nil {
		return nil, err
	}
	return &Writer{NewFrameWriter(w, DefaultFrameAccesses)}, nil
}

// Record captures up to n accesses of w's stream into out.
func Record(w workload.Workload, seed uint64, n uint64, out io.Writer) (uint64, error) {
	tw, err := NewWriter(out, w.Name())
	if err != nil {
		return 0, err
	}
	var appendErr error
	w.Run(seed, func(a workload.Access) bool {
		if appendErr = tw.Append(a); appendErr != nil {
			return false
		}
		return tw.Count() < n
	})
	if appendErr != nil {
		return tw.Count(), appendErr
	}
	return tw.Count(), tw.Flush()
}

// Reader decodes a trace stream. A caller either iterates Next or takes
// the undecoded frames from Body, not both.
type Reader struct {
	name  string
	fr    *FrameReader
	batch []workload.Access
	next  int
}

// NewReader validates the header and positions at the first frame.
func NewReader(r io.Reader) (*Reader, error) {
	var head [len(magic) + 2]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(head[:4]) != magic {
		return nil, errors.New("trace: bad magic")
	}
	if head[4] != version {
		return nil, fmt.Errorf("trace: unsupported version %d", head[4])
	}
	name := make([]byte, head[5])
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("trace: short name: %w", err)
	}
	return &Reader{name: string(name), fr: NewFrameReader(r)}, nil
}

// Name returns the recorded workload's name.
func (t *Reader) Name() string { return t.name }

// Body returns the rest of the trace undecoded: its frame stream, which
// is an rmccd replay body as it stands.
func (t *Reader) Body() io.Reader { return t.fr.r }

// Next decodes one access; io.EOF signals a clean end of trace.
func (t *Reader) Next() (workload.Access, error) {
	if t.next == len(t.batch) {
		batch, err := t.fr.DecodeInto(t.batch)
		if err != nil {
			t.batch = batch[:0]
			return workload.Access{}, err
		}
		t.batch, t.next = batch, 0
	}
	t.next++
	return t.batch[t.next-1], nil
}

// Replay is a workload.Workload backed by an in-memory trace, so recorded
// streams plug into both simulation drivers unchanged.
type Replay struct {
	name      string
	accesses  []workload.Access
	footprint uint64
}

// Load reads a whole trace into a replayable workload.
func Load(r io.Reader) (*Replay, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	rep := &Replay{name: tr.Name() + "-replay"}
	for {
		a, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rep.accesses = append(rep.accesses, a)
		if a.Addr >= rep.footprint {
			rep.footprint = a.Addr + 64
		}
	}
	if len(rep.accesses) == 0 {
		return nil, errors.New("trace: empty trace")
	}
	return rep, nil
}

// Name implements workload.Workload.
func (r *Replay) Name() string { return r.name }

// FootprintBytes implements workload.Workload.
func (r *Replay) FootprintBytes() uint64 { return r.footprint }

// Len returns the number of recorded accesses.
func (r *Replay) Len() int { return len(r.accesses) }

// Run implements workload.Workload: the trace loops like live workloads do,
// so the driver controls stream length.
func (r *Replay) Run(_ uint64, sink workload.Sink) {
	for {
		for _, a := range r.accesses {
			if !sink(a) {
				return
			}
		}
	}
}
