package obs

import (
	"io"
	"reflect"
	"sync"
	"testing"
	"time"
)

// stepClock returns a clock advancing step per call, starting at a fixed
// epoch, so span durations are deterministic.
func stepClock(step time.Duration) func() time.Time {
	t0 := time.Date(2026, 8, 6, 1, 2, 3, 0, time.UTC)
	n := 0
	return func() time.Time {
		t := t0.Add(time.Duration(n) * step)
		n++
		return t
	}
}

// TestSpanTracerBasic covers Start/End with a deterministic clock, parent
// links, and stage histogram observation in microseconds.
func TestSpanTracerBasic(t *testing.T) {
	st := NewSpanTracer(16)
	st.SetClock(stepClock(5 * time.Millisecond))
	hist := NewHistogram(Pow2Buckets(1, 24))
	st.RegisterStage("engine-step", hist)

	root := st.Start("replay", "s-01", 0)
	child := st.Start("engine-step", "s-01", root.ID())
	child.End() // clock ticks: start@0, start@5ms, end@10ms → 5ms span
	root.End()  // end@15ms → 15ms span

	spans := st.Spans()
	if st.Total() != 2 || len(spans) != 2 {
		t.Fatalf("Total/retained = %d/%d, want 2/2", st.Total(), len(spans))
	}
	if spans[0].Name != "engine-step" || spans[0].Parent != root.ID() {
		t.Errorf("child span wrong: %+v", spans[0])
	}
	if spans[0].Duration != int64(5*time.Millisecond) {
		t.Errorf("child duration = %d, want 5ms", spans[0].Duration)
	}
	if spans[1].Name != "replay" || spans[1].Parent != 0 ||
		spans[1].Duration != int64(15*time.Millisecond) {
		t.Errorf("root span wrong: %+v", spans[1])
	}
	// The registered stage saw exactly the child span, in microseconds.
	if hist.Count() != 1 || hist.Sum() != 5000 {
		t.Errorf("stage hist count/sum = %d/%d, want 1/5000", hist.Count(), hist.Sum())
	}
}

// TestSpanTracerRecord covers the externally-measured-span path.
func TestSpanTracerRecord(t *testing.T) {
	st := NewSpanTracer(4)
	hist := NewHistogram(Pow2Buckets(1, 24))
	st.RegisterStage("queue-wait", hist)
	id := st.RecordT("queue-wait", "s-02", 7, TraceContext{}, 1234, 250*time.Microsecond)
	if id == 0 {
		t.Fatal("RecordT returned 0 id")
	}
	sp := st.Spans()
	if len(sp) != 1 || sp[0].ID != id || sp[0].Parent != 7 ||
		sp[0].Start != 1234 || sp[0].Duration != int64(250*time.Microsecond) {
		t.Fatalf("recorded span wrong: %+v", sp)
	}
	if hist.Count() != 1 || hist.Sum() != 250 {
		t.Errorf("stage hist = %d/%d, want 1/250", hist.Count(), hist.Sum())
	}
	// Negative durations clamp to zero rather than corrupting histograms.
	st.RecordT("queue-wait", "s-02", 0, TraceContext{}, 0, -time.Second)
	if hist.Sum() != 250 {
		t.Errorf("negative duration leaked into hist sum: %d", hist.Sum())
	}
}

// TestSpanTracerRingWraparound fills the tracer's recorder past capacity
// and checks that the tracer reads its answers back out of that one store:
// the retained oldest-first window, Slowest ordering, and a drop count
// equal to the recorder's own and to the dump header's.
func TestSpanTracerRingWraparound(t *testing.T) {
	// A "stage" span with no detail is a 67-byte frame: the ring holds
	// exactly four.
	const frame = 3 + flightSpanFixed + 1 + len("stage") + 2
	fr := NewFlightRecorder(4*frame, "n")
	st := NewSpanTracerOn(fr)
	for i := 1; i <= 10; i++ {
		st.RecordT("stage", "", 0, TraceContext{}, 0, time.Duration(i)*time.Millisecond)
	}
	sp := st.Spans()
	if st.Total() != 10 || len(sp) != 4 || st.Dropped() != 6 || fr.Dropped() != 6 {
		t.Fatalf("Total/retained/Dropped/recorder Dropped = %d/%d/%d/%d, want 10/4/6/6",
			st.Total(), len(sp), st.Dropped(), fr.Dropped())
	}
	for i, r := range sp {
		want := int64(7+i) * int64(time.Millisecond)
		if r.Duration != want {
			t.Errorf("span %d duration = %d, want %d", i, r.Duration, want)
		}
	}
	if d := dumpAndRead(t, fr); !reflect.DeepEqual(d.Spans, sp) || d.Dropped != st.Dropped() {
		t.Errorf("dump holds %+v dropped %d, tracer reads %+v dropped %d", d.Spans, d.Dropped, sp, st.Dropped())
	}
	slow := st.Slowest(2)
	if len(slow) != 2 ||
		slow[0].Duration != int64(10*time.Millisecond) ||
		slow[1].Duration != int64(9*time.Millisecond) {
		t.Errorf("Slowest wrong: %+v", slow)
	}
	// Ties break on ascending ID.
	st2 := NewSpanTracer(8)
	a := st2.RecordT("s", "", 0, TraceContext{}, 0, time.Millisecond)
	b := st2.RecordT("s", "", 0, TraceContext{}, 0, time.Millisecond)
	got := st2.Slowest(8)
	if got[0].ID != a || got[1].ID != b {
		t.Errorf("tie order = %d,%d, want %d,%d", got[0].ID, got[1].ID, a, b)
	}
}

// TestSpanTracerNilSafe: the disabled state is a nil tracer.
func TestSpanTracerNilSafe(t *testing.T) {
	var st *SpanTracer
	sp := st.Start("x", "", 0)
	if sp.ID() != 0 {
		t.Error("nil tracer span has non-zero id")
	}
	sp.End()
	if st.RecordT("x", "", 0, TraceContext{}, 0, time.Second) != 0 {
		t.Error("nil RecordT returned id")
	}
	st.RegisterStage("x", nil)
	st.SetClock(time.Now)
	if st.Total() != 0 || st.Dropped() != 0 {
		t.Error("nil tracer reports contents")
	}
	if st.Spans() != nil || len(st.Slowest(3)) != 0 {
		t.Error("nil tracer returned spans")
	}
}

// TestSpanTracerConcurrent is the shard-worker concurrency model under
// the race detector: many goroutines completing spans (with a stage
// histogram attached) while exporters concurrently snapshot the store and
// serialize the registry. Afterwards every counter must agree on the
// emission count, and every span is either retained or counted dropped.
func TestSpanTracerConcurrent(t *testing.T) {
	const (
		workers = 8
		perG    = 2000
	)
	reg := NewRegistry()
	hist := reg.Histogram("test_span_us", "span latency", Pow2Buckets(1, 24))
	st := NewSpanTracer(256)
	st.RegisterStage("engine-step", hist)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Exporters: snapshot the span store and write the registry while
	// emitters run.
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = st.Spans()
				_ = st.Slowest(10)
				_ = st.Total()
				_ = reg.WritePrometheus(io.Discard)
			}
		}()
	}
	var emitters sync.WaitGroup
	for g := 0; g < workers; g++ {
		emitters.Add(1)
		go func(g int) {
			defer emitters.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					sp := st.Start("engine-step", "s-cc", 0)
					sp.End()
				} else {
					st.RecordT("engine-step", "s-cc", uint64(g), TraceContext{}, 0, time.Duration(i)*time.Microsecond)
				}
			}
		}(g)
	}
	emitters.Wait()
	close(stop)
	wg.Wait()

	const total = workers * perG
	if st.Total() != total {
		t.Errorf("span Total = %d, want %d", st.Total(), total)
	}
	if hist.Count() != total {
		t.Errorf("stage hist Count = %d, want %d", hist.Count(), total)
	}
	if kept := uint64(len(st.Spans())); st.Dropped() == 0 || kept+st.Dropped() != total {
		t.Errorf("retained %d + dropped %d, want a wrapped ring accounting for %d", kept, st.Dropped(), total)
	}
}
