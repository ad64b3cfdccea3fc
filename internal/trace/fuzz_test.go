package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"rmcc/internal/workload"
)

// FuzzReader ensures arbitrary bytes never panic the decoder: every input
// either parses to a (possibly empty) access stream or returns an error.
func FuzzReader(f *testing.F) {
	var valid bytes.Buffer
	w, _ := NewWriter(&valid, "seed")
	w.Append(workload.Access{Addr: 4096, Write: true, Gap: 7})
	w.Append(workload.Access{Addr: 8192, Gap: 3})
	w.Flush()
	f.Add(valid.Bytes())
	f.Add([]byte("RMTR"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1_000_000; i++ {
			if _, err := r.Next(); err != nil {
				if err != io.EOF && !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("untyped trace error: %v", err)
				}
				return
			}
		}
	})
}

// FuzzWriterReaderRoundTrip: any encodable access sequence survives a
// round trip bit-exactly.
func FuzzWriterReaderRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(1<<40), true, uint8(5))
	f.Fuzz(func(t *testing.T, a1, a2 uint64, wr bool, gap uint8) {
		if gap > 127 {
			gap = 127
		}
		in := []workload.Access{
			{Addr: a1, Write: wr, Gap: gap},
			{Addr: a2, Write: !wr, Gap: 127 - gap},
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "fz")
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range in {
			if err := w.Append(a); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range in {
			got, err := r.Next()
			if err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("access %d: %+v != %+v", i, got, want)
			}
		}
	})
}
