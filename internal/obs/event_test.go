package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestEventNilSafety(t *testing.T) {
	var ev *Event
	// Every builder method must be a chainable no-op on nil.
	out := ev.Str("k", "v").Int("n", 1).Float("f", 0.5).Bool("b", true).Dur("d_ms", time.Second)
	if out != nil {
		t.Fatalf("nil event builder returned %v", out)
	}
	var em *Emitter
	em.Emit(NewEvent("x")) // must not panic
	em.Emit(nil)
}

// TestWideEventGolden pins the JSON shape of one wide event line: the
// field order, names and value types operators and the smoke scripts
// depend on. The slog time is replaced with a fixed instant so the
// line is deterministic.
func TestWideEventGolden(t *testing.T) {
	var buf bytes.Buffer
	h := slog.NewJSONHandler(&buf, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.String(slog.TimeKey, "2026-01-02T03:04:05Z")
			}
			return a
		},
	})
	em := NewEmitter(slog.New(h), nil)

	ev := NewEvent("request").
		Str("request_id", "ab12cd34ef56ab78").
		Str("route", "embed").
		Int("status", 200).
		Str("outcome", "ok").
		Bool("cache_hit", true).
		Int("attempts", 1).
		Dur("queue_wait_ms", 1500*time.Microsecond).
		Dur("decode_ms", 250*time.Microsecond).
		Dur("lookup_ms", 30*time.Millisecond).
		Dur("work_ms", 8*time.Millisecond).
		Dur("respond_ms", 2*time.Millisecond).
		Dur("latency_ms", 42*time.Millisecond)
	em.Emit(ev)

	golden := filepath.Join("testdata", "wide_event.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("wide-event JSON drifted from golden.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestEmitterRecorderAndTextFormat(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "text")
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(8)
	em := NewEmitter(logger, rec)
	em.Emit(NewEvent("cli").Str("command", "xse-test").Int("exit_code", 0))

	if !strings.Contains(buf.String(), "msg=cli") || !strings.Contains(buf.String(), "command=xse-test") {
		t.Errorf("text line = %q", buf.String())
	}
	evs := rec.Snapshot()
	if len(evs) != 1 || evs[0].Name != "cli" || !evs[0].MatchAttr("command", "xse-test") {
		t.Errorf("recorded = %+v", evs)
	}
}

func TestNewLoggerFormats(t *testing.T) {
	if l, err := NewLogger(os.Stderr, ""); err != nil || l != nil {
		t.Errorf("empty format: logger=%v err=%v", l, err)
	}
	for _, f := range []string{"json", "text"} {
		if l, err := NewLogger(os.Stderr, f); err != nil || l == nil {
			t.Errorf("format %q: logger=%v err=%v", f, l, err)
		}
	}
	if _, err := NewLogger(os.Stderr, "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestNewRequestID(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{16}$`)
	a, b := NewRequestID(), NewRequestID()
	if !re.MatchString(a) || !re.MatchString(b) {
		t.Fatalf("malformed IDs %q %q", a, b)
	}
	if a == b {
		t.Fatalf("IDs collide: %q", a)
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if RequestIDFrom(ctx) != "" || EventFrom(ctx) != nil || EmitterFrom(ctx) != nil {
		t.Fatal("empty context not empty")
	}
	ev := NewEvent("request")
	em := NewEmitter(nil, NewRecorder(1))
	ctx = WithRequestID(ctx, "deadbeefdeadbeef")
	ctx = WithEvent(ctx, ev)
	ctx = WithEmitter(ctx, em)
	if RequestIDFrom(ctx) != "deadbeefdeadbeef" {
		t.Errorf("request id = %q", RequestIDFrom(ctx))
	}
	if EventFrom(ctx) != ev || EmitterFrom(ctx) != em {
		t.Error("event/emitter not round-tripped")
	}
	// Inner stages annotate through the context without knowing the
	// event exists.
	EventFrom(ctx).Bool("cache_hit", true)
	var got bytes.Buffer
	b, err := json.Marshal(RecordedEvent{Name: ev.name, Attrs: ev.attrs})
	if err != nil {
		t.Fatal(err)
	}
	got.Write(b)
	if !strings.Contains(got.String(), `"cache_hit":true`) {
		t.Errorf("annotation lost: %s", got.String())
	}
}
