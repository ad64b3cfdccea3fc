package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"rmcc/internal/workload"
)

func sample(n int) []workload.Access {
	out := make([]workload.Access, n)
	addr := uint64(1 << 20)
	for i := range out {
		addr += uint64(i%777) * 64
		out[i] = workload.Access{Addr: addr, Write: i%5 == 0, Gap: uint8(i % 100)}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "unit")
	if err != nil {
		t.Fatal(err)
	}
	accs := sample(5000)
	for _, a := range accs {
		if err := w.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "unit" {
		t.Fatalf("name = %q", r.Name())
	}
	for i, want := range accs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("access %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(addrs []uint64, seed uint8) bool {
		if len(addrs) == 0 {
			return true
		}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, "prop")
		in := make([]workload.Access, len(addrs))
		for i, a := range addrs {
			in[i] = workload.Access{Addr: a, Write: a&1 == 0, Gap: uint8(a % 128)}
			if err := w.Append(in[i]); err != nil {
				return false
			}
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range in {
			got, err := r.Next()
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompression(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "compress")
	// Sequential stride-64 stream: should approach 2 bytes/access.
	for i := 0; i < 10000; i++ {
		w.Append(workload.Access{Addr: uint64(i) * 64, Gap: 4})
	}
	w.Flush()
	if perAcc := float64(buf.Len()) / 10000; perAcc > 4 {
		t.Fatalf("compression poor: %.1f bytes/access", perAcc)
	}
}

func TestRecordAndLoadWorkload(t *testing.T) {
	orig, _ := workload.ByName(workload.SizeTest, 1, "canneal")
	var buf bytes.Buffer
	n, err := Record(orig, 7, 20000, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20000 {
		t.Fatalf("recorded %d", n)
	}
	rep, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 20000 {
		t.Fatalf("replay len = %d", rep.Len())
	}
	// The replay must reproduce the original stream exactly (modulo the
	// 7-bit gap clamp, which canneal's gaps stay under).
	orig2, _ := workload.ByName(workload.SizeTest, 1, "canneal")
	var expect []workload.Access
	orig2.Run(7, func(a workload.Access) bool {
		expect = append(expect, a)
		return len(expect) < 20000
	})
	i := 0
	rep.Run(0, func(a workload.Access) bool {
		if a != expect[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a, expect[i])
		}
		i++
		return i < len(expect)
	})
	if rep.FootprintBytes() == 0 {
		t.Fatal("zero footprint")
	}
}

func TestReplayLoops(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "loop")
	w.Append(workload.Access{Addr: 64})
	w.Append(workload.Access{Addr: 128})
	w.Flush()
	rep, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	rep.Run(0, func(workload.Access) bool {
		count++
		return count < 7 // more than recorded: must loop
	})
	if count != 7 {
		t.Fatalf("replay did not loop: %d", count)
	}
}

func TestBadHeaders(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("JUNK00"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("RMTR\x09\x00"))); err == nil {
		t.Fatal("bad version accepted")
	}
	// Version 1 files carried one unframed varint stream.
	v1 := []byte("RMTR\x01\x04unit\x00\x80\x80\x04")
	if _, err := NewReader(bytes.NewReader(v1)); err == nil || err.Error() != "trace: unsupported version 1" {
		t.Fatalf("version-1 header: err = %v, want trace: unsupported version 1", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "empty")
	w.Flush()
	if _, err := Load(&buf); err == nil {
		t.Fatal("empty trace accepted by Load")
	}
}

func TestGapClamp(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "clamp")
	w.Append(workload.Access{Addr: 0, Gap: 255})
	w.Flush()
	r, _ := NewReader(&buf)
	a, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if a.Gap != 127 {
		t.Fatalf("gap = %d, want clamped 127", a.Gap)
	}
}
