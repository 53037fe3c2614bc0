package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers one counter/gauge/histogram from 8
// goroutines; meaningful mostly under -race, and the totals must be
// exact (no lost updates).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("xse_test_ops_total", "ops")
	g := r.Gauge("xse_test_depth", "depth")
	h := r.Histogram("xse_test_seconds", "latency", LatencyBuckets)

	const goroutines = 8
	const perG = 10_000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	want := float64(goroutines*perG) * 0.001
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Errorf("histogram sum = %g, want %g", got, want)
	}
}

// TestRegistryConcurrentRegistration races first-time registration of
// the same names from 8 goroutines: every goroutine must receive the
// same instrument (created under the registry lock), so no increment
// is lost to a discarded duplicate and Snapshot never sees a
// half-built metric. Meaningful mostly under -race.
func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 1_000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("xse_test_race_total", "")
			g := r.Gauge("xse_test_race_depth", "")
			h := r.Histogram("xse_test_race_seconds", "", LatencyBuckets)
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
				// Snapshot concurrently with registration: must never
				// observe a metric without its instrument.
				if j%100 == 0 {
					for _, s := range r.Snapshot() {
						if s.Kind == KindHistogram && s.Hist == nil {
							t.Error("Snapshot returned histogram metric with nil Hist")
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := r.Counter("xse_test_race_total", "").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d (lost updates to a duplicate instrument)", got, goroutines*perG)
	}
	if got := r.Gauge("xse_test_race_depth", "").Value(); got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("xse_test_race_seconds", "", LatencyBuckets).Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestRegistryReregister: same name and kind share the instrument;
// kind mismatch panics.
func TestRegistryReregister(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("xse_test_total", "")
	b := r.Counter("xse_test_total", "")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("xse_test_total", "")
}

func TestValidName(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"xse_search_total", true},
		{"xse_pipeline_parse_seconds", true},
		{"xse_pipeline_read_bytes_total", true},
		{"xse_x", true},
		{"xse_", false},
		{"search_total", false},
		{"xse_Search_total", false},
		{"xse_search-total", false},
		{"", false},
	} {
		if got := validName(tc.name); got != tc.ok {
			t.Errorf("validName(%q) = %v, want %v", tc.name, got, tc.ok)
		}
	}
}

// TestHistogramBuckets pins the bucket-boundary convention: a value
// equal to an upper bound lands in that bucket (Prometheus le
// semantics), one past it in the next.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("xse_test_size", "", []float64{1, 2, 4})
	for _, tc := range []struct {
		v      float64
		bucket int
	}{
		{0, 0},
		{1, 0}, // v == bound: inclusive
		{1.5, 1},
		{2, 1},
		{3, 2},
		{4, 2},
		{5, 3}, // +Inf bucket
		{100, 3},
	} {
		before := h.snapshot()
		h.Observe(tc.v)
		after := h.snapshot()
		for i := range after.Counts {
			want := before.Counts[i]
			if i == tc.bucket {
				want++
			}
			if after.Counts[i] != want {
				t.Errorf("Observe(%g): bucket %d count = %d, want %d",
					tc.v, i, after.Counts[i], want)
			}
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
}

// TestNilInstruments: every instrument method is a safe no-op on a
// nil receiver.
func TestNilInstruments(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	c.Inc()
	c.Add(7)
	g.Set(3)
	g.Add(-1)
	g.SetMax(9)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments reported nonzero values")
	}
}

// TestGaugeSetMaxConcurrent: SetMax is a high-water mark that keeps the
// largest of many concurrent updates (run under -race in make check).
func TestGaugeSetMaxConcurrent(t *testing.T) {
	g := NewRegistry().Gauge("xse_test_max", "")
	g.Set(-1)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			g.SetMax(v)
		}(int64(i * 7 % n))
	}
	wg.Wait()
	if got := g.Value(); got != n-1 {
		t.Errorf("SetMax high-water mark = %d, want %d", got, n-1)
	}
	g.SetMax(3)
	if got := g.Value(); got != n-1 {
		t.Errorf("smaller SetMax lowered the gauge to %d", got)
	}
}

// TestLabeledChildren: label sets are distinct series of one family,
// sharing a single HELP/TYPE header in the exposition.
func TestLabeledChildren(t *testing.T) {
	r := NewRegistry()
	a := r.CounterL("xse_test_errors_total", "errs", "stage", "parse")
	b := r.CounterL("xse_test_errors_total", "errs", "stage", "map")
	if a == b {
		t.Fatal("distinct label sets shared one counter")
	}
	a.Inc()
	a.Inc()
	b.Inc()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# HELP xse_test_errors_total") != 1 {
		t.Errorf("want exactly one HELP line:\n%s", out)
	}
	if !strings.Contains(out, `xse_test_errors_total{stage="parse"} 2`) ||
		!strings.Contains(out, `xse_test_errors_total{stage="map"} 1`) {
		t.Errorf("missing labeled series:\n%s", out)
	}
}

// TestWriteJSON round-trips the JSON exposition.
func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("xse_test_total", "t").Add(3)
	r.Histogram("xse_test_seconds", "s", []float64{1, 2}).Observe(1.5)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 2 {
		t.Fatalf("got %d metrics, want 2", len(out))
	}
	if out[0]["name"] != "xse_test_seconds" || out[1]["name"] != "xse_test_total" {
		t.Errorf("unexpected order/names: %v", out)
	}
}

// TestWriteSummary: zero-valued instruments are suppressed; nonzero
// ones render one aligned line each.
func TestWriteSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("xse_test_hits_total", "").Add(5)
	r.Counter("xse_test_misses_total", "") // zero: suppressed
	r.Histogram("xse_test_seconds", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := WriteSummary(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "xse_test_hits_total") || !strings.Contains(out, "count=1") {
		t.Errorf("summary missing lines:\n%s", out)
	}
	if strings.Contains(out, "xse_test_misses_total") {
		t.Errorf("zero-valued metric not suppressed:\n%s", out)
	}
}
