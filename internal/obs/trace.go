package obs

import (
	"context"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects spans and renders them in the Chrome trace_event
// JSON format, loadable in about:tracing and Perfetto. It is
// optional: spans are opened only by stages (stage.go), and only when
// the stage's context carries a tracer, so instrumented code pays two
// context lookups and no allocation when tracing is off.
//
// Spans are grouped into lanes (the trace viewer's tid rows): a stage
// begun under a context that already carries a span inherits its
// parent's lane, so nesting renders as stacked bars; a stage begun
// from a span-less context opens a fresh lane. Concurrent workers
// begun that way each get their own row instead of interleaving on
// one.
type Tracer struct {
	t0       time.Time
	nextLane atomic.Int64

	mu     sync.Mutex
	events []chromeEvent
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

// WithTracer returns a context carrying tr; every stage begun under it
// records a span into tr.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, tr)
}

// tracerFrom extracts the context's tracer (nil when tracing is off).
func tracerFrom(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	return tr
}

func (t *Tracer) startSpan(name string, parent *Span, start time.Time) *Span {
	lane := int64(0)
	if parent != nil {
		lane = parent.lane
	} else {
		lane = t.nextLane.Add(1)
	}
	return &Span{tr: t, name: name, lane: lane, start: start}
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
	s.Attr(k, strconv.FormatInt(v, 10))
}

// finish records the span as lasting dur. No-op on a nil span; a
// stage's End calls it once.
func (s *Span) finish(dur time.Duration) {
	if s == nil {
		return
	}
	ev := chromeEvent{
		Name: s.name, Cat: "xse", Ph: "X", Pid: 1, Tid: s.lane,
		Ts:   float64(s.start.Sub(s.tr.t0)) / 1e3,
		Dur:  float64(dur) / 1e3,
		Args: s.args,
	}
	s.tr.mu.Lock()
	s.tr.events = append(s.tr.events, ev)
	s.tr.mu.Unlock()
}

// chromeEvent is one completed span in the trace_event JSON shape of
// an "X" (complete) event.
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
	events := append([]chromeEvent{}, t.events...) // never null in JSON
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{"ms", events})
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
