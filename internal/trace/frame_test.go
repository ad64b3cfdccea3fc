package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"rmcc/internal/workload"
)

// genAccesses builds a deterministic pseudo-random access stream with
// the full range of deltas the codec must handle.
func genAccesses(n int, seed int64) []workload.Access {
	rng := rand.New(rand.NewSource(seed))
	out := make([]workload.Access, n)
	addr := uint64(1 << 30)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			addr += 64
		case 1:
			addr -= 4096
		case 2:
			addr = rng.Uint64()
		case 3:
			addr += uint64(rng.Intn(1 << 20))
		}
		out[i] = workload.Access{Addr: addr, Write: rng.Intn(2) == 1, Gap: uint8(rng.Intn(128))}
	}
	return out
}

func frameStream(t testing.TB, accs []workload.Access, batch int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, batch)
	for _, a := range accs {
		if err := fw.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	for _, batch := range []int{1, 7, 4096} {
		accs := genAccesses(10_000, 42)
		stream := frameStream(t, accs, batch)
		fr := NewFrameReader(bytes.NewReader(stream))
		var got []workload.Access
		batchBuf := make([]workload.Access, 0, batch)
		for {
			var err error
			batchBuf, err = fr.DecodeInto(batchBuf)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("batch=%d: %v", batch, err)
			}
			got = append(got, batchBuf...)
		}
		if len(got) != len(accs) {
			t.Fatalf("batch=%d: decoded %d accesses, want %d", batch, len(got), len(accs))
		}
		for i := range accs {
			if got[i] != accs[i] {
				t.Fatalf("batch=%d: access %d = %+v, want %+v", batch, i, got[i], accs[i])
			}
		}
	}
}

// TestFileBodyIsFrameStream pins the file format to the replay wire: a
// written trace minus its header is byte for byte the FrameWriter stream
// of the same accesses, and Body hands over exactly those bytes.
func TestFileBodyIsFrameStream(t *testing.T) {
	accs := genAccesses(3*DefaultFrameAccesses+500, 7)
	var file bytes.Buffer
	w, err := NewWriter(&file, "wire")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		if err := w.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	body := file.Bytes()[len(magic)+2+len("wire"):]
	if want := frameStream(t, accs, DefaultFrameAccesses); !bytes.Equal(body, want) {
		t.Fatalf("file body (%d bytes) differs from the frame stream (%d bytes)", len(body), len(want))
	}
	r, err := NewReader(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r.Body())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("Body returned %d bytes, want the %d-byte frame stream", len(got), len(body))
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	valid := frameStream(t, genAccesses(10, 1), 10)

	hdr := func(payloadLen, count uint32) []byte {
		b := make([]byte, frameHeaderLen)
		binary.LittleEndian.PutUint32(b[0:4], payloadLen)
		binary.LittleEndian.PutUint32(b[4:8], count)
		return b
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"truncated header", valid[:5], ErrFrameCorrupt},
		{"truncated payload", valid[:len(valid)-3], ErrFrameCorrupt},
		{"oversized payload", hdr(MaxFramePayload+1, 1), ErrFrameTooLarge},
		{"oversized count", hdr(64, MaxFrameAccesses+1), ErrFrameTooLarge},
		{"zero accesses", hdr(0, 0), ErrFrameCorrupt},
		{"payload too small for count", hdr(4, 100), ErrFrameCorrupt},
		{"trailing payload bytes", append(append(hdr(uint32(len(valid))-frameHeaderLen+2, 10), valid[frameHeaderLen:]...), 0, 0), ErrFrameCorrupt},
		{"unterminated varint", append(hdr(11, 1), 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80), ErrFrameCorrupt},
	}
	for _, tc := range cases {
		fr := NewFrameReader(bytes.NewReader(tc.in))
		_, err := fr.DecodeInto(nil)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// EOF at a frame boundary is the clean end of stream, not an error.
	fr := NewFrameReader(bytes.NewReader(valid))
	if _, err := fr.DecodeInto(nil); err != nil {
		t.Fatalf("valid frame: %v", err)
	}
	if _, err := fr.DecodeInto(nil); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestDecodeFrameAllocFree is the tentpole's alloc guard: once the
// reader's payload buffer and the caller's batch have grown to steady
// state, decoding a 4096-access frame performs zero allocations — the
// binary replay hot path adds nothing per access or per frame.
func TestDecodeFrameAllocFree(t *testing.T) {
	accs := genAccesses(DefaultFrameAccesses, 3)
	stream := frameStream(t, accs, DefaultFrameAccesses)
	src := bytes.NewReader(stream)
	fr := NewFrameReader(src)
	batch := make([]workload.Access, 0, DefaultFrameAccesses)
	var err error
	if batch, err = fr.DecodeInto(batch); err != nil { // warm the payload buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(stream)
		// A fresh stream restarts the delta predictor; realign the
		// reader's so decode results stay consistent run to run.
		fr.prevAddr = 0
		if batch, err = fr.DecodeInto(batch); err != nil {
			t.Fatal(err)
		}
		if len(batch) != DefaultFrameAccesses {
			t.Fatalf("decoded %d accesses", len(batch))
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeInto allocates %.1f/op at steady state, want 0", allocs)
	}
}

// BenchmarkDecodeFrame measures the binary wire's per-access decode cost
// at steady state: one full frame per iteration, reused buffers.
func BenchmarkDecodeFrame(b *testing.B) {
	accs := genAccesses(DefaultFrameAccesses, 3)
	stream := frameStream(b, accs, DefaultFrameAccesses)
	src := bytes.NewReader(stream)
	fr := NewFrameReader(src)
	batch := make([]workload.Access, 0, DefaultFrameAccesses)
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(stream)
		fr.prevAddr = 0
		var err error
		if batch, err = fr.DecodeInto(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(DefaultFrameAccesses)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// FuzzDecodeFrame: arbitrary bytes fed to the frame decoder must either
// decode or return a typed error (ErrFrameTooLarge / ErrFrameCorrupt /
// io.EOF), never panic and never allocate unbounded memory — the server
// hands it raw request bodies.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(frameStream(f, genAccesses(20, 9), 8))
	f.Add([]byte{})
	f.Add(make([]byte, frameHeaderLen))
	big := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(big[0:4], MaxFramePayload+1)
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		batch := make([]workload.Access, 0, 64)
		for i := 0; i < 1_000; i++ {
			var err error
			batch, err = fr.DecodeInto(batch)
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("untyped frame error: %v", err)
				}
				return
			}
			if len(batch) == 0 || len(batch) > MaxFrameAccesses {
				t.Fatalf("decoded batch of %d accesses", len(batch))
			}
		}
	})
}
