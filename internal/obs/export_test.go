package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestPrometheusGolden pins the exact exposition format — HELP/TYPE
// headers, cumulative buckets with le labels, _sum/_count — against a
// golden file, so accidental format drift (which would break real
// Prometheus scrapers) fails loudly.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("xse_demo_ops_total", "Operations performed.").Add(42)
	r.Gauge("xse_demo_queue_depth", "Items queued.").Set(-3)
	h := r.Histogram("xse_demo_seconds", "Operation latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(5)
	r.CounterL("xse_demo_errors_total", "Errors by stage.", "stage", "parse").Inc()
	r.CounterL("xse_demo_errors_total", "Errors by stage.", "stage", "write").Add(2)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestTracerChromeJSON: spans render as valid trace_event JSON with
// lane inheritance (a nested stage shares its parent's tid) and the
// stages begun from a span-less context (workers) on distinct lanes.
func TestTracerChromeJSON(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	run, stage, worker := NewStage("run", nil, ""), NewStage("stage", nil, ""), NewStage("worker", nil, "")
	rctx, root := run.Begin(ctx)
	_, child := stage.Begin(rctx)
	child.Span().AttrInt("items", 12)
	child.End()
	root.End()
	_, w1 := worker.Begin(ctx)
	_, w2 := worker.Begin(ctx)
	w1.End()
	w2.End()

	if tr.Len() != 4 {
		t.Fatalf("recorded %d spans, want 4", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var payload struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Tid  int64             `json:"tid"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &payload); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	if len(payload.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(payload.TraceEvents))
	}
	byName := map[string][]int64{}
	for _, e := range payload.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %s: ph = %q, want X", e.Name, e.Ph)
		}
		byName[e.Name] = append(byName[e.Name], e.Tid)
	}
	if byName["stage"][0] != byName["run"][0] {
		t.Error("child span did not inherit the parent's lane")
	}
	if lanes := byName["worker"]; lanes[0] == lanes[1] || lanes[0] == byName["run"][0] {
		t.Errorf("worker lanes %v share a row (run on %d)", lanes, byName["run"][0])
	}
	if args := payload.TraceEvents[0].Args; args["items"] != "12" {
		t.Errorf("stage args = %v, want items=12", args)
	}
}

// TestNilSpans: all span operations are no-ops without a tracer.
func TestNilSpans(t *testing.T) {
	ctx, tm := NewStage("x", nil, "").Begin(context.Background())
	if s := tm.Span(); s != nil {
		t.Fatal("stage without a tracer opened a span")
	}
	if ctx != context.Background() {
		t.Error("stage without a tracer derived a context")
	}
	tm.Span().Attr("k", "v")
	tm.Span().AttrInt("n", 7)
	tm.End()
	var tr *Tracer
	if tr.Len() != 0 {
		t.Error("nil tracer recorded spans")
	}
}
