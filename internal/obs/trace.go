package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects spans and renders them in the Chrome trace_event
// JSON format, loadable in about:tracing and Perfetto. It is
// optional: when no tracer is attached to a context, StartSpan
// returns a nil *Span whose methods are no-ops, so instrumented code
// pays one context lookup (or, on cached-tracer paths, one nil check)
// when tracing is off.
//
// Spans are grouped into lanes (the trace viewer's tid rows): a span
// started from a context that already carries a span inherits its
// parent's lane, so nesting renders as stacked bars; a span started
// from a lane-less context (or via NewLane) opens a fresh lane.
// Concurrent workers therefore each get their own row instead of
// interleaving on one.
type Tracer struct {
	t0       time.Time
	nextLane atomic.Int64

	mu     sync.Mutex
	events []traceEvent
}

// traceEvent is one completed span, in trace_event "X" (complete
// event) form.
type traceEvent struct {
	name  string
	lane  int64
	start time.Duration // since t0
	dur   time.Duration
	args  map[string]string
}

// NewTracer returns a tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now()}
}

// Span is one in-flight timed region. A nil Span is the disabled
// tracer's no-op.
type Span struct {
	tr    *Tracer
	name  string
	lane  int64
	start time.Time
	args  map[string]string
}

// tracerKey and spanKey attach the tracer and the current span to a
// context.
type tracerKey struct{}
type spanKey struct{}

// WithTracer returns a context carrying tr; all StartSpan calls under
// it record into tr.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, tr)
}

// TracerFrom extracts the context's tracer (nil when tracing is off).
// Hot paths that start many spans should call this once and use
// Tracer.StartSpan directly rather than re-walking the context.
func TracerFrom(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	return tr
}

// StartSpan opens a span named name under ctx's tracer and current
// span (lane inheritance), returning the child context to pass down
// and the span to End. With no tracer attached it returns ctx
// unchanged and a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tr := TracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	s := tr.startSpan(name, parent)
	// Correlate the span with the request that caused it: the same
	// request_id appears in the wide event, the error body and here.
	if id := RequestIDFrom(ctx); id != "" {
		s.Attr("request_id", id)
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartSpan opens a span on an explicit tracer, inheriting the lane
// of parent (which may be nil for a fresh lane). It is the
// cached-tracer fast path for loops that must not touch the context;
// a nil receiver returns a nil span.
func (t *Tracer) StartSpan(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	return t.startSpan(name, parent)
}

func (t *Tracer) startSpan(name string, parent *Span) *Span {
	lane := int64(0)
	if parent != nil {
		lane = parent.lane
	} else {
		lane = t.nextLane.Add(1)
	}
	return &Span{tr: t, name: name, lane: lane, start: time.Now()}
}

// NewLane opens a top-level span on its own lane regardless of any
// current span — one per concurrent worker, so each worker's spans
// render as a separate row.
func (t *Tracer) NewLane(name string) *Span {
	if t == nil {
		return nil
	}
	return t.startSpan(name, nil)
}

// Attr attaches a string attribute, rendered in the trace viewer's
// args pane. No-op on a nil span.
func (s *Span) Attr(k, v string) {
	if s == nil {
		return
	}
	if s.args == nil {
		s.args = make(map[string]string, 4)
	}
	s.args[k] = v
}

// AttrInt attaches an integer attribute.
func (s *Span) AttrInt(k string, v int64) {
	if s == nil {
		return
	}
	s.Attr(k, itoa(v))
}

// itoa avoids strconv on the span path for the common small values.
func itoa(v int64) string {
	if v >= 0 && v < 10 {
		return string([]byte{byte('0' + v)})
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// End closes the span and records it. No-op on a nil span; Ending a
// span twice records it twice (don't).
func (s *Span) End() {
	if s == nil {
		return
	}
	ev := traceEvent{
		name:  s.name,
		lane:  s.lane,
		start: s.start.Sub(s.tr.t0),
		dur:   time.Since(s.start),
		args:  s.args,
	}
	s.tr.mu.Lock()
	s.tr.events = append(s.tr.events, ev)
	s.tr.mu.Unlock()
}

// chromeEvent is the trace_event JSON shape.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace renders every recorded span as Chrome trace_event
// JSON ({"traceEvents":[...]}); load the file in about:tracing or
// ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	events := make([]traceEvent, len(t.events))
	copy(events, t.events)
	t.mu.Unlock()

	out := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		out = append(out, chromeEvent{
			Name: e.name,
			Cat:  "xse",
			Ph:   "X",
			Pid:  1,
			Tid:  e.lane,
			Ts:   float64(e.start) / 1e3,
			Dur:  float64(e.dur) / 1e3,
			Args: e.args,
		})
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	payload := struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{"ms", out}
	if err := enc.Encode(payload); err != nil {
		return err
	}
	return bw.Flush()
}

// Len reports the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}
