package obs

import (
	"context"
	"log/slog"
	"sync"
	"testing"
	"time"
)

// eventFields returns the event's attributes with key, in order.
func eventFields(ev *Event, key string) []slog.Attr {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	var out []slog.Attr
	for _, a := range ev.attrs {
		if a.Key == key {
			out = append(out, a)
		}
	}
	return out
}

// TestStageNoTelemetryAllocs: with no tracer and no event on the
// context, a stage costs no allocation.
func TestStageNoTelemetryAllocs(t *testing.T) {
	st := NewStage("test.stage", NewRegistry().Histogram("xse_test_stage_seconds", "h", LatencyBuckets), "stage_ms")
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, tm := st.Begin(ctx)
		tm.End()
	})
	if allocs != 0 {
		t.Errorf("Begin+End allocated %v times per run, want 0", allocs)
	}
}

// TestStageOneCallThreeSinks: one stage with a tracer and an event
// attached yields exactly one span, one histogram count and one event
// field, all carrying the elapsed time End returns.
func TestStageOneCallThreeSinks(t *testing.T) {
	h := NewRegistry().Histogram("xse_test_stage_seconds", "h", LatencyBuckets)
	st := NewStage("test.stage", h, "stage_ms")
	tr := NewTracer()
	ev := NewEvent("request")
	ctx := WithEvent(WithTracer(context.Background(), tr), ev)
	ctx = WithRequestID(ctx, "rid-1")

	sctx, tm := st.Begin(ctx)
	if sctx == ctx || sctx.Value(spanKey{}) != tm.Span() {
		t.Error("Begin under a tracer did not return a context carrying its span")
	}
	time.Sleep(time.Millisecond)
	d := tm.End()

	if tr.Len() != 1 {
		t.Errorf("spans = %d, want 1", tr.Len())
	}
	tr.mu.Lock()
	sp := tr.events[0]
	tr.mu.Unlock()
	if sp.Name != "test.stage" || sp.Dur != float64(d)/1e3 || sp.Args["request_id"] != "rid-1" {
		t.Errorf("span = %+v, want test.stage lasting %v tagged rid-1", sp, d)
	}
	if h.Count() != 1 || h.Sum() != d.Seconds() {
		t.Errorf("histogram count=%d sum=%v, want 1 and %v", h.Count(), h.Sum(), d.Seconds())
	}
	f := eventFields(ev, "stage_ms")
	if len(f) != 1 || f[0].Value.Float64() != ms(d) {
		t.Errorf("event fields = %v, want one stage_ms = %v", f, ms(d))
	}
	if d < time.Millisecond {
		t.Errorf("End returned %v, want at least the 1ms slept", d)
	}
}

// TestStageRepeatSumsIntoOneField: ending the same stage twice on one
// event sums into its one field; a concurrent batch does the same
// without a race.
func TestStageRepeatSumsIntoOneField(t *testing.T) {
	h := NewRegistry().Histogram("xse_test_stage_seconds", "h", LatencyBuckets)
	st := NewStage("test.stage", h, "stage_ms")
	ev := NewEvent("cli").Str("command", "x")
	ctx := WithEvent(context.Background(), ev)

	_, t1 := st.Begin(ctx)
	d1 := t1.End()
	_, t2 := st.Begin(ctx)
	d2 := t2.End()
	f := eventFields(ev, "stage_ms")
	if len(f) != 1 || f[0].Value.Float64() != ms(d1)+ms(d2) {
		t.Fatalf("fields = %v, want one stage_ms = %v", f, ms(d1)+ms(d2))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, tm := st.Begin(ctx)
				tm.End()
			}
		}()
	}
	wg.Wait()
	if f := eventFields(ev, "stage_ms"); len(f) != 1 {
		t.Errorf("concurrent ends left %d stage_ms fields, want 1", len(f))
	}
	if h.Count() != 2+8*50 {
		t.Errorf("histogram count = %d, want %d", h.Count(), 2+8*50)
	}
}

// TestStageWithoutKeyOrHistogram: a span-only stage writes no event
// field and observes nothing, but still reports its elapsed time.
func TestStageWithoutKeyOrHistogram(t *testing.T) {
	ev := NewEvent("request")
	_, tm := NewStage("test.span", nil, "").Begin(WithEvent(context.Background(), ev))
	if d := tm.End(); d < 0 {
		t.Errorf("End = %v", d)
	}
	ev.mu.Lock()
	n := len(ev.attrs)
	ev.mu.Unlock()
	if n != 0 {
		t.Errorf("keyless stage wrote %d event fields", n)
	}
}

// TestTimerEndOnce: only a timer's first End counts, so a deferred End
// after an explicit one is a no-op; a zero Timer's End is one too.
func TestTimerEndOnce(t *testing.T) {
	h := NewRegistry().Histogram("xse_test_stage_seconds", "h", LatencyBuckets)
	ev := NewEvent("request")
	_, tm := NewStage("test.stage", h, "stage_ms").Begin(WithEvent(context.Background(), ev))
	d := tm.End()
	if again := tm.End(); again != 0 {
		t.Errorf("second End = %v, want 0", again)
	}
	if f := eventFields(ev, "stage_ms"); h.Count() != 1 || len(f) != 1 || f[0].Value.Float64() != ms(d) {
		t.Errorf("after two Ends: count=%d fields=%v, want one observation of %v", h.Count(), f, d)
	}
	var zero Timer
	if zero.End() != 0 || zero.Span() != nil {
		t.Error("zero Timer is not inert")
	}
}
