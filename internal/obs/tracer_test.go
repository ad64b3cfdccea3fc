package obs

import (
	"strings"
	"testing"
)

// TestTracerRingWraparound fills a small ring past capacity and checks the
// retained window, lifetime totals, and oldest-first ordering.
func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 20; i++ {
		tr.Emit(EventKind(i%3), uint64(i), uint64(i*10), uint64(i*100))
	}
	if tr.Total() != 20 {
		t.Errorf("Total = %d, want 20", tr.Total())
	}
	if tr.Len() != 8 || tr.Cap() != 8 {
		t.Errorf("Len/Cap = %d/%d, want 8/8", tr.Len(), tr.Cap())
	}
	ev := tr.Events()
	if len(ev) != 8 {
		t.Fatalf("Events returned %d, want 8", len(ev))
	}
	for i, e := range ev {
		wantSeq := uint64(12 + i) // window [Total-Len, Total)
		if e.Seq != wantSeq {
			t.Errorf("event %d Seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Addr != wantSeq || e.V1 != wantSeq*10 || e.V2 != wantSeq*100 {
			t.Errorf("event %d payload mismatch: %+v", i, e)
		}
	}
	// Per-kind totals cover the whole lifetime, not just the window:
	// kinds 0,1,2 got 7,7,6 of the 20 emissions.
	if tr.CountByKind(0) != 7 || tr.CountByKind(1) != 7 || tr.CountByKind(2) != 6 {
		t.Errorf("CountByKind = %d/%d/%d, want 7/7/6",
			tr.CountByKind(0), tr.CountByKind(1), tr.CountByKind(2))
	}
}

// TestTracerPartialFill checks the pre-wraparound window.
func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(EvRekey, 1, 2, 3)
	tr.Emit(EvOSMUpdate, 4, 5, 6)
	if tr.Total() != 2 || tr.Len() != 2 {
		t.Fatalf("Total/Len = %d/%d, want 2/2", tr.Total(), tr.Len())
	}
	ev := tr.Events()
	if ev[0].Kind != EvRekey || ev[1].Kind != EvOSMUpdate {
		t.Fatalf("order wrong: %+v", ev)
	}
}

// TestTracerJSONL pins the trace schema line format.
func TestTracerJSONL(t *testing.T) {
	tr := NewTracer(4)
	tr.Emit(EvCtrCacheHit, 0x1000, 42, 1)
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":0,"kind":"ctr-cache-hit","addr":4096,"v1":42,"v2":1}` + "\n"
	if sb.String() != want {
		t.Errorf("JSONL = %q, want %q", sb.String(), want)
	}
}

// TestEventKindStringsStable pins every kind's wire name — these are part
// of the trace schema documented in docs/OBSERVABILITY.md and must not
// drift silently.
func TestEventKindStringsStable(t *testing.T) {
	want := map[EventKind]string{
		EvCtrCacheHit:    "ctr-cache-hit",
		EvCtrCacheMiss:   "ctr-cache-miss",
		EvMemoHit:        "memo-hit",
		EvMemoMiss:       "memo-miss",
		EvMemoInsert:     "memo-insert",
		EvEpochRollover:  "epoch-rollover",
		EvBudgetSpend:    "budget-spend",
		EvBudgetDenied:   "budget-denied",
		EvOSMUpdate:      "osm-update",
		EvFaultInjected:  "fault-injected",
		EvFaultDetected:  "fault-detected",
		EvFaultRecovered: "fault-recovered",
		EvRekey:          "rekey",
	}
	if len(want) != NumEventKinds {
		t.Fatalf("test covers %d kinds, tracer has %d", len(want), NumEventKinds)
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("kind %d = %q, want %q", k, k.String(), name)
		}
	}
}
