package obs

import (
	"errors"
	"strings"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := TraceContext{TraceHi: 0xdeadbeef01020304, TraceLo: 0x05060708090a0b0c, SpanID: 0x1122334455667788, Sampled: true}
	s := tc.String()
	if len(s) != TraceHeaderLen {
		t.Fatalf("encoded length = %d, want %d (%q)", len(s), TraceHeaderLen, s)
	}
	got, err := ParseTraceContext(s)
	if err != nil {
		t.Fatalf("ParseTraceContext(%q): %v", s, err)
	}
	if got != tc {
		t.Fatalf("round trip: got %+v, want %+v", got, tc)
	}
	tc.Sampled = false
	got, err = ParseTraceContext(tc.String())
	if err != nil || got != tc {
		t.Fatalf("unsampled round trip: got %+v err %v, want %+v", got, err, tc)
	}
}

func TestTraceContextZero(t *testing.T) {
	var tc TraceContext
	if tc.Valid() {
		t.Fatal("zero context must be invalid")
	}
	if tc.String() != "" || tc.TraceID() != "" {
		t.Fatalf("zero context renders %q / %q, want empty", tc.String(), tc.TraceID())
	}
	got, err := ParseTraceContext("")
	if err != nil || got.Valid() {
		t.Fatalf("empty header: got %+v err %v, want zero, nil", got, err)
	}
}

func TestParseTraceContextRejects(t *testing.T) {
	valid := TraceContext{TraceHi: 0xabcdef, TraceLo: 2, SpanID: 0xfeed, Sampled: true}.String()
	bad := []string{
		valid[:len(valid)-1],                         // short
		valid + "0",                                  // long
		strings.Repeat("0", TraceHeaderLen),          // no separators
		strings.ToUpper(valid),                       // uppercase hex
		"01" + valid[2:],                             // wrong version
		"00-" + strings.Repeat("0", 32) + valid[35:], // zero trace id
		strings.Replace(valid, "0", "g", 1),          // non-hex
		strings.Repeat("x", 4096),                    // oversized garbage
	}
	for _, v := range bad {
		if _, err := ParseTraceContext(v); !errors.Is(err, ErrTraceContext) {
			t.Errorf("ParseTraceContext(%.60q) err = %v, want ErrTraceContext", v, err)
		}
	}
}

func TestParseTraceID(t *testing.T) {
	tc := MintTraceContext()
	hi, lo, err := ParseTraceID(tc.TraceID())
	if err != nil || hi != tc.TraceHi || lo != tc.TraceLo {
		t.Fatalf("ParseTraceID(%q) = %x %x %v, want %x %x", tc.TraceID(), hi, lo, err, tc.TraceHi, tc.TraceLo)
	}
	for _, v := range []string{"", "abc", strings.Repeat("0", 32), strings.Repeat("z", 32), strings.Repeat("0", 33)} {
		if _, _, err := ParseTraceID(v); !errors.Is(err, ErrTraceContext) {
			t.Errorf("ParseTraceID(%q) err = %v, want ErrTraceContext", v, err)
		}
	}
}

func TestMintTraceContext(t *testing.T) {
	a, b := MintTraceContext(), MintTraceContext()
	if !a.Valid() || !a.Sampled {
		t.Fatalf("minted context %+v must be valid and sampled", a)
	}
	if a.TraceHi == b.TraceHi && a.TraceLo == b.TraceLo {
		t.Fatalf("two mints share a trace ID: %+v", a)
	}
}

func TestParseTraceContextAllocFree(t *testing.T) {
	v := MintTraceContext().String()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ParseTraceContext(v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseTraceContext allocates %.1f/op, want 0", allocs)
	}
}

func TestSpanTracerTraceFields(t *testing.T) {
	tr := NewSpanTracer(16)
	tc := TraceContext{TraceHi: 7, TraceLo: 9, SpanID: 42, Sampled: true}
	root := tr.StartRemote("http.replay", "/sessions/s-1/replay", tc)
	child := tr.StartT("replay", "s-1", root.ID(), tc)
	tr.RecordT("engine-step", "s-1", child.ID(), tc, 100, 5)
	child.End()
	root.End()
	tr.RecordT("background", "", 0, TraceContext{}, 0, 1) // different trace: none

	got := tr.SpansForTrace(7, 9)
	if len(got) != 3 {
		t.Fatalf("SpansForTrace retained %d spans, want 3", len(got))
	}
	for _, r := range got {
		if r.TraceHi != 7 || r.TraceLo != 9 {
			t.Fatalf("span %+v lost its trace ID", r)
		}
	}
	var root2 SpanRecord
	for _, r := range got {
		if r.Name == "http.replay" {
			root2 = r
		}
	}
	if root2.Remote != 42 || root2.Parent != 0 {
		t.Fatalf("remote root = %+v, want Remote=42 Parent=0", root2)
	}
	if tr.SpansForTrace(0, 0) != nil {
		t.Fatal("SpansForTrace(0,0) must return nothing")
	}
}

func TestSpanTracerDropped(t *testing.T) {
	tr := NewSpanTracer(4)
	for i := 0; i < 10; i++ {
		tr.RecordT("x", "", 0, TraceContext{}, int64(i), 1)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	var nilTr *SpanTracer
	if nilTr.Dropped() != 0 {
		t.Fatal("nil tracer Dropped must be 0")
	}
}
