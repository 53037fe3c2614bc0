package obs

import (
	"context"
	"time"
)

// Stage is one timed unit of work — a σd run, a translation, a search,
// a request's decode — declared once as a package-level value, like
// the instruments. The declaration fixes its span name, its latency
// histogram (nil for none) and its wide-event key ("" for none), and
// one Begin/End pair feeds all three:
//
//	var stParse = obs.NewStage("pipeline.parse",
//		obs.Default().Histogram("xse_pipeline_parse_seconds", "…", obs.LatencyBuckets),
//		"parse_ms")
//
//	ctx, t := stParse.Begin(ctx)
//	… the work …
//	t.End()
//
// scripts/metriclint holds every declaration to a literal span name, a
// histogram registered inline and ending in _seconds, and a snake_case
// key ending in _ms that no other stage of the package uses.
type Stage struct {
	span string
	hist *Histogram
	key  string
}

// NewStage declares a stage.
func NewStage(span string, hist *Histogram, key string) *Stage {
	return &Stage{span: span, hist: hist, key: key}
}

// Timer is one running stage, returned by Begin.
type Timer struct {
	st    *Stage
	ev    *Event
	span  *Span
	start time.Time
}

// Begin starts the stage. When ctx carries a tracer it opens the
// stage's span, tagged with ctx's request ID, as a child of ctx's
// current span on its lane, or on a fresh lane when ctx has no span
// (so workers begun from the same span-less context each get a row),
// and returns a context carrying the span for nested stages; otherwise
// it returns ctx itself. With no tracer and no event on ctx, Begin and
// End allocate nothing.
func (s *Stage) Begin(ctx context.Context) (context.Context, Timer) {
	t := Timer{st: s, start: time.Now()}
	if s.key != "" {
		t.ev = EventFrom(ctx)
	}
	if tr := tracerFrom(ctx); tr != nil {
		parent, _ := ctx.Value(spanKey{}).(*Span)
		t.span = tr.startSpan(s.span, parent, t.start)
		if id := RequestIDFrom(ctx); id != "" {
			t.span.Attr("request_id", id)
		}
		ctx = context.WithValue(ctx, spanKey{}, t.span)
	}
	return ctx, t
}

// Span returns the stage's span, for attributes; nil (a no-op) when
// tracing is off.
func (t *Timer) Span() *Span { return t.span }

// End closes the stage and returns its elapsed time: it records the
// span, observes the histogram and adds the elapsed milliseconds to
// Begin's event under the stage's key, so a stage that runs many times
// on one event (once per document of a batch) sums into one field.
// Only a timer's first End counts, so `defer t.End()` can cover early
// returns while the normal path ends the stage sooner.
func (t *Timer) End() time.Duration {
	if t.st == nil {
		return 0
	}
	d := time.Since(t.start)
	t.st.hist.Observe(d.Seconds())
	t.ev.addMS(t.st.key, d)
	t.span.finish(d)
	t.st = nil
	return d
}
