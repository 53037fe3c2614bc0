package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"
)

// Event is a wide structured event under construction: one request,
// one CLI run, one search restart — a single record carrying every
// fact about the unit of work, emitted once when the unit completes
// (the "wide event" style, as opposed to many narrow log lines).
// Methods are nil-safe no-ops so call sites never guard, and return
// the event for chaining. They are safe for concurrent use, so the
// workers of one batch can all end their stages on the run's event;
// the event must not be changed once emitted.
//
// Field keys are snake_case by convention (enforced by
// scripts/metriclint); duration fields use Dur or a Stage and end in
// _ms.
type Event struct {
	name  string
	mu    sync.Mutex
	attrs []slog.Attr
}

// NewEvent starts a wide event with the given name (e.g. "request",
// "cli", "search.restart").
func NewEvent(name string) *Event {
	return &Event{name: name, attrs: make([]slog.Attr, 0, 16)}
}

// Str adds a string field.
func (e *Event) Str(key, v string) *Event { return e.add(slog.String(key, v)) }

// Int adds an integer field.
func (e *Event) Int(key string, v int64) *Event { return e.add(slog.Int64(key, v)) }

// Float adds a float field.
func (e *Event) Float(key string, v float64) *Event { return e.add(slog.Float64(key, v)) }

// Bool adds a boolean field.
func (e *Event) Bool(key string, v bool) *Event { return e.add(slog.Bool(key, v)) }

// Dur adds a duration field as fractional milliseconds; by convention
// the key ends in _ms.
func (e *Event) Dur(key string, d time.Duration) *Event { return e.add(slog.Float64(key, ms(d))) }

func (e *Event) add(a slog.Attr) *Event {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	e.attrs = append(e.attrs, a)
	e.mu.Unlock()
	return e
}

// addMS adds d in milliseconds to the float field key, appending the
// field the first time: a stage ending repeatedly on one event keeps
// one field. No-op on a nil event or an empty key.
func (e *Event) addMS(key string, d time.Duration) {
	if e == nil || key == "" {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.attrs {
		if a := &e.attrs[i]; a.Key == key && a.Value.Kind() == slog.KindFloat64 {
			a.Value = slog.Float64Value(a.Value.Float64() + ms(d))
			return
		}
	}
	e.attrs = append(e.attrs, slog.Float64(key, ms(d)))
}

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Emitter delivers completed wide events to a structured log (JSON or
// text lines via log/slog) and/or the in-process flight recorder. A
// nil Emitter drops everything; either sink may be nil independently.
// Emit is safe for concurrent use.
type Emitter struct {
	log *slog.Logger
	rec *Recorder
}

// NewEmitter builds an emitter writing to logger (nil: no log lines)
// and recorder (nil: no flight recording).
func NewEmitter(logger *slog.Logger, rec *Recorder) *Emitter {
	if logger == nil && rec == nil {
		return nil
	}
	return &Emitter{log: logger, rec: rec}
}

// Emit timestamps the event and delivers it to the emitter's sinks.
// The event must not be mutated afterwards.
func (em *Emitter) Emit(ev *Event) {
	if em == nil || ev == nil {
		return
	}
	now := time.Now()
	ev.mu.Lock()
	attrs := ev.attrs
	ev.mu.Unlock()
	if em.log != nil {
		em.log.LogAttrs(context.Background(), slog.LevelInfo, ev.name, attrs...)
	}
	if em.rec != nil {
		em.rec.Add(RecordedEvent{Time: now, Name: ev.name, Attrs: attrs})
	}
}

// NewLogger builds the slog logger behind -log-format: "json" emits
// one JSON object per line, "text" the logfmt-ish slog text format,
// "" disables logging (nil logger). Any other value is an error.
func NewLogger(w io.Writer, format string) (*slog.Logger, error) {
	switch format {
	case "":
		return nil, nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want json or text)", format)
}

// NewRequestID mints a 16-hex-char random correlation ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant ID keeps
		// the request serviceable (correlation degrades, nothing else).
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

type requestIDKey struct{}
type eventKey struct{}
type emitterKey struct{}

// WithRequestID attaches a correlation ID to ctx; subsystems (search,
// pipeline, spans) echo it into their own events and spans.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the context's correlation ID ("" when unset).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// WithEvent attaches the unit of work's wide event to ctx so inner
// stages can annotate it (EventFrom(ctx).Bool("cache_hit", true))
// without threading it through every signature.
func WithEvent(ctx context.Context, ev *Event) context.Context {
	return context.WithValue(ctx, eventKey{}, ev)
}

// EventFrom returns the context's wide event; nil (a safe no-op
// target) when none is attached.
func EventFrom(ctx context.Context) *Event {
	ev, _ := ctx.Value(eventKey{}).(*Event)
	return ev
}

// WithEmitter attaches an emitter to ctx so subsystems can emit their
// own event streams (e.g. search.restart) alongside the unit's wide
// event.
func WithEmitter(ctx context.Context, em *Emitter) context.Context {
	return context.WithValue(ctx, emitterKey{}, em)
}

// EmitterFrom returns the context's emitter; nil (drops events) when
// none is attached.
func EmitterFrom(ctx context.Context) *Emitter {
	em, _ := ctx.Value(emitterKey{}).(*Emitter)
	return em
}
