// Package obs is the unified telemetry layer: a zero-dependency,
// stdlib-only metrics registry (atomic counters, gauges and bounded
// histograms with fixed bucket layouts), a lightweight span tracer
// emitting Chrome trace_event JSON, and exporters (Prometheus text
// exposition, JSON dump, human-readable summary, and a -debug-addr
// HTTP endpoint serving /metrics, /debug/vars and net/http/pprof).
//
// Design constraints, in order:
//
//   - Hot paths never allocate and never lock: instruments are
//     pre-registered structs of atomics; labeled families pre-create
//     their children at registration time so an Inc in a worker loop
//     is one uncontended atomic add. All mutation is atomic, so
//     `go test -race` stays clean without mutexes on the fast path.
//   - One home per instrument: each package registers its instruments
//     once, as package-level vars on Default(), so no call site
//     resolves an instrument. Every instrument method is still a
//     no-op on a nil receiver.
//   - One source of truth: CLI -v summaries, /metrics scrapes and
//     JSON dumps all render the same registry, so the human and
//     machine views cannot disagree.
//
// Metric names follow the Prometheus convention enforced at
// registration (and by scripts/metriclint at CI time):
// xse_<subsystem>_<what>[_total|_seconds|_bytes].
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates the instrument types of a registry.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind in the Prometheus TYPE vocabulary.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// validName reports whether name matches the registry's naming rule,
// checked by hand to keep regexp off the registration path (the same
// pattern is enforced textually by scripts/metriclint:
// ^xse_[a-z0-9_]+(_total|_seconds|_bytes)?$; the suffixes are already
// covered by the body pattern and are called out because the lint
// rejects other unit suffixes by convention).
func validName(name string) bool {
	const prefix = "xse_"
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return false
	}
	for i := len(prefix); i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' {
			continue
		}
		return false
	}
	return true
}

// Counter is a monotonically increasing uint64. All methods are
// no-ops on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current total (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 (queue depths, in-flight work).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// SetMax raises the gauge to v if v is larger: a high-water mark that
// keeps the largest of concurrent updates.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a bounded histogram with a fixed bucket layout chosen
// at registration: observations index a precomputed upper-bound table,
// so Observe is a scan over a small array plus two atomic adds and
// never allocates. The sum is kept as float64 bits updated by CAS,
// keeping -race clean without a lock.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistSnapshot is a point-in-time copy of a histogram for exporters.
type HistSnapshot struct {
	Bounds []float64 // upper bounds; the +Inf bucket is Counts[len(Bounds)]
	Counts []uint64  // per-bucket (non-cumulative) counts
	Count  uint64
	Sum    float64
}

// snapshot copies the histogram state (nil on a nil receiver, like
// the mutation methods).
func (h *Histogram) snapshot() *HistSnapshot {
	if h == nil {
		return nil
	}
	s := &HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Fixed bucket layouts. Registering the same histogram name twice
// must use the same layout; the presets keep instrumentation sites
// from inventing ad-hoc shapes.
var (
	// LatencyBuckets spans 10µs to 10s exponentially — the range of
	// everything this system times, from one compiled query evaluation
	// to an Exact search on a large schema.
	LatencyBuckets = []float64{
		10e-6, 25e-6, 100e-6, 250e-6,
		1e-3, 2.5e-3, 10e-3, 25e-3,
		0.1, 0.25, 1, 2.5, 10,
	}
	// SizeBuckets is a powers-of-two layout for counts (automaton
	// states, compiled program lengths, candidate-set sizes).
	SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}
)

// metric is one registered instrument with its identity and help.
type metric struct {
	name   string
	help   string
	kind   Kind
	labels [][2]string // sorted key/value const labels; nil when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// key is the full identity: base name plus rendered labels.
func (m *metric) key() string { return metricKey(m.name, m.labels) }

func metricKey(name string, labels [][2]string) string {
	if len(labels) == 0 {
		return name
	}
	k := name + "{"
	for i, l := range labels {
		if i > 0 {
			k += ","
		}
		k += l[0] + "=" + l[1]
	}
	return k + "}"
}

// Registry holds registered instruments. Registration takes a lock
// and is expected at package init, where instruments are declared as
// package-level vars; the instruments it returns are lock-free. The
// zero value is not usable; construct with NewRegistry, or use
// Default.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*metric
	ordered []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry: every package's
// instruments (search, pipeline, streaming, xpath, translation, guard
// limits, the daemon) register here, and CLIs and xse-serve export it
// via -v, -debug-addr, -trace-out and /metrics.
func Default() *Registry { return defaultRegistry }

// register installs (or re-fetches) a metric. Re-registering the
// same key with the same kind returns the existing instrument —
// independent call sites may share a counter by name — while a kind
// mismatch, bucket-layout mismatch or invalid name panics: metric
// identity is static program structure, and a clash is a bug to fix,
// not an error to handle. The instrument itself is created here,
// under r.mu, so register always returns a fully-initialized metric:
// two goroutines racing to register the same name get the same
// instrument, never two (buckets is nil except for histograms).
func (r *Registry) register(name, help string, kind Kind, labels [][2]string, buckets []float64) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want ^xse_[a-z0-9_]+$)", name))
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", key, kind, m.kind))
		}
		if kind == KindHistogram && !sameBuckets(m.h.bounds, buckets) {
			panic("obs: histogram " + name + " re-registered with different buckets")
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind, labels: labels}
	switch kind {
	case KindCounter:
		m.c = &Counter{}
	case KindGauge:
		m.g = &Gauge{}
	case KindHistogram:
		m.h = &Histogram{
			bounds: buckets,
			counts: make([]atomic.Uint64, len(buckets)+1),
		}
	}
	r.byKey[key] = m
	r.ordered = append(r.ordered, m)
	return m
}

// parseLabels validates and sorts variadic key/value pairs.
func parseLabels(kv []string) [][2]string {
	if len(kv) == 0 {
		return nil
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	labels := make([][2]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, [2]string{kv[i], kv[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i][0] < labels[j][0] })
	return labels
}

// Counter registers (or fetches) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterL(name, help)
}

// CounterL is Counter with constant labels given as key/value pairs,
// e.g. CounterL("xse_pipeline_errors_total", "…", "stage", "parse").
// Each label combination is its own pre-created child, so hot-path
// increments never format label strings.
func (r *Registry) CounterL(name, help string, kv ...string) *Counter {
	return r.register(name, help, KindCounter, parseLabels(kv), nil).c
}

// Gauge registers (or fetches) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeL(name, help)
}

// GaugeL is Gauge with constant labels.
func (r *Registry) GaugeL(name, help string, kv ...string) *Gauge {
	return r.register(name, help, KindGauge, parseLabels(kv), nil).g
}

// Histogram registers (or fetches) the named histogram with the given
// fixed bucket layout (use the package presets). Re-registration must
// pass an identical layout.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramL(name, help, buckets)
}

// HistogramL is Histogram with constant labels.
func (r *Registry) HistogramL(name, help string, buckets []float64, kv ...string) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram with no buckets: " + name)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets not strictly increasing: " + name)
		}
	}
	return r.register(name, help, KindHistogram, parseLabels(kv), buckets).h
}

func sameBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MetricSnapshot is one instrument's identity and current value, as
// consumed by the exporters.
type MetricSnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Labels [][2]string
	// Counter holds the counter value for KindCounter; Gauge the
	// gauge value for KindGauge; Hist the histogram state for
	// KindHistogram.
	Counter uint64
	Gauge   int64
	Hist    *HistSnapshot
}

// Key renders the full identity (name plus labels).
func (m *MetricSnapshot) Key() string { return metricKey(m.Name, m.Labels) }

// Snapshot copies every registered metric, sorted by name then label
// set, so exporter output is deterministic.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]*metric, len(r.ordered))
	copy(metrics, r.ordered)
	r.mu.Unlock()

	out := make([]MetricSnapshot, 0, len(metrics))
	for _, m := range metrics {
		s := MetricSnapshot{Name: m.name, Help: m.help, Kind: m.kind, Labels: m.labels}
		switch m.kind {
		case KindCounter:
			s.Counter = m.c.Value()
		case KindGauge:
			s.Gauge = m.g.Value()
		case KindHistogram:
			s.Hist = m.h.snapshot()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}
