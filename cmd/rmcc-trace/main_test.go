package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rmcc/internal/trace"
	"rmcc/internal/workload"
)

// TestNDJSONRoundTrip: a recorded RMTR stream decoded to NDJSON and
// encoded back is byte-identical, and every NDJSON line is exactly
// json.Marshal of its accessRecord.
func TestNDJSONRoundTrip(t *testing.T) {
	w, ok := workload.ByName(workload.SizeTest, 1, "canneal")
	if !ok {
		t.Fatal("canneal unavailable")
	}
	var rmtr bytes.Buffer
	n, err := trace.Record(w, 1, 5_000, &rmtr)
	if err != nil {
		t.Fatal(err)
	}
	var nd bytes.Buffer
	if got, err := decodeToNDJSON(bytes.NewReader(rmtr.Bytes()), &nd); err != nil || got != n {
		t.Fatalf("decode: %d accesses, %v; want %d", got, err, n)
	}

	var writes, gaps int
	for i, line := range strings.Split(strings.TrimSuffix(nd.String(), "\n"), "\n") {
		a, err := decodeAccessLine([]byte(line))
		if err != nil {
			t.Fatalf("line %d %q: %v", i+1, line, err)
		}
		want, _ := json.Marshal(accessRecord{Addr: a.Addr, Write: a.Write, Gap: a.Gap})
		if line != string(want) {
			t.Fatalf("line %d = %s, json.Marshal gives %s", i+1, line, want)
		}
		if a.Write {
			writes++
		}
		if a.Gap != 0 {
			gaps++
		}
	}
	if writes == 0 || gaps == 0 {
		t.Fatalf("stream has %d writes and %d non-zero gaps; the round trip needs both", writes, gaps)
	}

	var back bytes.Buffer
	if got, err := encodeNDJSON(&nd, &back, w.Name()); err != nil || got != n {
		t.Fatalf("encode: %d accesses, %v; want %d", got, err, n)
	}
	if !bytes.Equal(back.Bytes(), rmtr.Bytes()) {
		t.Fatalf("RMTR -> NDJSON -> RMTR is not byte-identical (%d vs %d bytes)", back.Len(), rmtr.Len())
	}
}

// TestEncodeNDJSONRejects: a bad line fails the whole encode and names
// its line number.
func TestEncodeNDJSONRejects(t *testing.T) {
	for _, tc := range []struct{ name, bad string }{
		{"malformed", `not json`},
		{"unknown field", `{"addr":1,"bogus":true}`},
		{"trailing object", `{"addr":1} {"addr":2}`},
		{"trailing brace", `{"addr":1}}`},
		{"gap out of range", `{"addr":1,"gap":256}`},
		{"negative addr", `{"addr":-1}`},
	} {
		in := "{\"addr\":4096}\n\n" + tc.bad + "\n"
		_, err := encodeNDJSON(strings.NewReader(in), &bytes.Buffer{}, "bad")
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: err = %v, want a line 3 error", tc.name, err)
		}
	}
}

// TestEncodeNDJSONClampsGap: NDJSON gaps above RMTR's 7-bit field are
// clamped to 127 on encode.
func TestEncodeNDJSONClampsGap(t *testing.T) {
	var rmtr bytes.Buffer
	if _, err := encodeNDJSON(strings.NewReader(`{"addr":64,"write":true,"gap":200}`+"\n"), &rmtr, "gap"); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&rmtr)
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if want := (workload.Access{Addr: 64, Write: true, Gap: 127}); a != want {
		t.Fatalf("decoded %+v, want %+v", a, want)
	}
}
