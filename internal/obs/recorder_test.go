package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func recEvent(name string, attrs ...string) RecordedEvent {
	ev := NewEvent(name)
	for i := 0; i+1 < len(attrs); i += 2 {
		ev.Str(attrs[i], attrs[i+1])
	}
	return RecordedEvent{Time: time.Unix(0, 0), Name: name, Attrs: ev.attrs}
}

func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(4)
	if r.Len() != 0 {
		t.Fatalf("fresh Len = %d", r.Len())
	}
	for i := 0; i < 6; i++ {
		r.Add(recEvent(fmt.Sprintf("e%d", i)))
	}
	if r.Len() != 4 {
		t.Fatalf("Len after wrap = %d, want 4", r.Len())
	}
	got := r.Snapshot()
	// Most recent first; the two oldest (e0, e1) were overwritten.
	want := []string{"e5", "e4", "e3", "e2"}
	if len(got) != len(want) {
		t.Fatalf("snapshot size = %d", len(got))
	}
	for i, w := range want {
		if got[i].Name != w {
			t.Errorf("snapshot[%d] = %q, want %q", i, got[i].Name, w)
		}
	}
}

func TestRecorderNil(t *testing.T) {
	var r *Recorder
	r.Add(recEvent("x")) // no-op, no panic
	if r.Len() != 0 || r.Snapshot() != nil {
		t.Fatal("nil recorder not empty")
	}
}

func TestRecorderServeHTTPFilters(t *testing.T) {
	r := NewRecorder(16)
	r.Add(recEvent("request", "route", "embed", "outcome", "ok"))
	r.Add(recEvent("request", "route", "migrate", "outcome", "ok"))
	r.Add(recEvent("request", "route", "embed", "outcome", "error"))
	r.Add(recEvent("cli", "command", "xse-map"))

	get := func(query string) []map[string]any {
		t.Helper()
		req := httptest.NewRequest("GET", "/debug/events"+query, nil)
		w := httptest.NewRecorder()
		r.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("GET %s: status %d", query, w.Code)
		}
		var out []map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET %s: %v\n%s", query, err, w.Body.String())
		}
		return out
	}

	if got := get(""); len(got) != 4 {
		t.Errorf("unfiltered: %d events", len(got))
	}
	if got := get("?event=request"); len(got) != 3 {
		t.Errorf("event filter: %d events", len(got))
	}
	if got := get("?event=request&route=embed"); len(got) != 2 {
		t.Errorf("two filters: %d events", len(got))
	}
	got := get("?event=request&route=embed&outcome=error")
	if len(got) != 1 || got[0]["route"] != "embed" || got[0]["outcome"] != "error" {
		t.Errorf("three filters: %+v", got)
	}
	if got := get("?n=2"); len(got) != 2 || got[0]["event"] != "cli" {
		t.Errorf("n limit: %+v", got)
	}
	if got := get("?route=nosuch"); len(got) != 0 {
		t.Errorf("no-match filter: %+v", got)
	}

	req := httptest.NewRequest("GET", "/debug/events?n=bogus", nil)
	w := httptest.NewRecorder()
	r.ServeHTTP(w, req)
	if w.Code != 400 {
		t.Errorf("invalid n: status %d", w.Code)
	}
}

func TestRecordedEventJSONTypes(t *testing.T) {
	ev := NewEvent("request").
		Str("route", "embed").
		Int("status", 200).
		Float("quality", 0.5).
		Bool("cache_hit", false)
	b, err := json.Marshal(RecordedEvent{
		Time:  time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Name:  ev.name,
		Attrs: ev.attrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"time":"2026-01-02T03:04:05Z","event":"request","route":"embed","status":200,"quality":0.5,"cache_hit":false}`
	if string(b) != want {
		t.Errorf("marshal = %s\nwant      %s", b, want)
	}
}

// TestRecorderConcurrent hammers Add, Snapshot and ServeHTTP from many
// goroutines; run under -race this pins the recorder's thread safety.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add(recEvent("request", "route", "embed"))
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = r.Snapshot()
				req := httptest.NewRequest("GET", "/debug/events?event=request", nil)
				r.ServeHTTP(httptest.NewRecorder(), req)
			}
		}()
	}
	wg.Wait()
	if r.Len() != 32 {
		t.Fatalf("Len = %d, want 32", r.Len())
	}
}
