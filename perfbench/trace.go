package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer records spans around the benchmark's calls into the
// repository's modules. Spans stay in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed layer call: its name (layer.call), the op it
// belongs to (-1 for set-up), its parent span (-1 for none) and its
// start and end relative to the tracer's creation.
type span struct {
	name       string
	op         int64
	parent     int32
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(op int64, name string, parent int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.t0)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) finish(i int32) {
	t.mu.Lock()
	t.spans[i].end = time.Since(t.t0)
	t.mu.Unlock()
}

// opCtx is the context one op (or one set-up) runs under.
type opCtx struct {
	tr   *tracer // nil when untraced
	id   int64
	root int32
	// lat, when an op sets it, replaces the latency timed around the
	// op (an op whose latency is defined by program callbacks).
	lat time.Duration
}

// span runs f, recording it as a span named name when tracing.
func (o *opCtx) span(name string, f func()) {
	if o.tr == nil {
		f()
		return
	}
	i := o.tr.begin(o.id, name, o.root)
	f()
	o.tr.finish(i)
}

// nameAgg sums the spans of one name.
type nameAgg struct {
	count int
	ms    float64
}

// traceAgg is the per-layer digest of a tracer's spans.
type traceAgg struct {
	// byName sums the ops' spans by name, setup the set-up spans'.
	byName, setup map[string]*nameAgg
	// selfMS is each layer's self time over the ops: span duration
	// minus the part its child spans cover.
	selfMS map[string]float64
	// opMS is the summed duration of the ops' root spans and
	// uncoveredMS the part of it no layer span covers.
	opMS, uncoveredMS float64
	// before and after snapshot the program's own instruments around
	// the traced phase.
	before, after counters
}

// delta is the change of one program instrument over the traced phase.
func (a *traceAgg) delta(name string) float64 { return a.after.delta(a.before, name) }

func (t *tracer) aggregate() *traceAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	agg := &traceAgg{byName: map[string]*nameAgg{}, setup: map[string]*nameAgg{}, selfMS: map[string]float64{}}
	childMS := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childMS[s.parent] += elapsedMS(s.end - s.start)
		}
	}
	for i, s := range t.spans {
		d := elapsedMS(s.end - s.start)
		if s.name == "op" {
			agg.opMS += d
			agg.uncoveredMS += d - childMS[i]
			continue
		}
		by := agg.byName
		if s.op < 0 {
			by = agg.setup
		} else {
			agg.selfMS[layerOf(s.name)] += d - childMS[i]
		}
		a := by[s.name]
		if a == nil {
			a = &nameAgg{}
			by[s.name] = a
		}
		a.count++
		a.ms += d
	}
	return agg
}

// meanMS is the mean duration of the ops' spans named name (0 if none).
func (a *traceAgg) meanMS(name string) float64 { return mean(a.byName[name]) }

// setupMeanMS is the mean duration of the set-up spans named name.
func (a *traceAgg) setupMeanMS(name string) float64 { return mean(a.setup[name]) }

func mean(n *nameAgg) float64 {
	if n == nil || n.count == 0 {
		return 0
	}
	return n.ms / float64(n.count)
}

// layerOf is the module a span name belongs to: the part before the
// first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layers are the repository modules the traced run attributes time
// to. xmltree is called only from inside pipeline and server, so it has
// no span of its own; its parse and encode time is read from the
// pipeline's stage histograms.
var layers = []string{"dtd", "match", "search", "embedding", "pipeline", "translate", "anfa", "xpath", "server"}

// perLayerNames lists every per-layer metric; BENCHMARK.json's
// per_layer list must name exactly these.
var perLayerNames = func() []string {
	var names []string
	for _, l := range layers {
		names = append(names, l+".self_ms")
	}
	return append(names,
		"bench.uncovered_ms", "bench.trace_overhead_pct",
		"dtd.parse_ms", "match.att_ms",
		"search.find_ms", "search.restarts", "search.steps", "search.paths_enumerated",
		"search.bfs_expansions", "search.path_cache_hit_ratio", "search.found_ratio",
		"search.rejections.path_empty", "search.rejections.lambda_empty",
		"search.rejections.prefix_free", "search.rejections.local_select",
		"search.rejections.conflict",
		"pipeline.doc_ms", "pipeline.parse_ms", "pipeline.map_ms",
		"pipeline.encode_ms", "pipeline.validate_ms",
		"embedding.stream_tokens", "embedding.stream_mb_s",
		"embedding.buffered_peak_bytes", "embedding.stream_fallbacks",
		"embedding.compile_stream_ms",
		"translate.translate_ms", "anfa.compile_ms", "anfa.states_before",
		"anfa.states_after", "anfa.eval_ms", "anfa.nodes_selected",
		"xpath.eval_ms",
		"server.request_ms.embed", "server.request_ms.translate", "server.request_ms.migrate",
		"server.artifact_hit_ratio", "server.translate_cache_hit_ratio",
		"server.queue_wait_ms", "server.shed", "server.retries",
	)
}()

// newPerLayer returns every per-layer metric at zero; a metric stays
// zero on a workload that never reaches its layer.
func newPerLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayerNames))
	for _, n := range perLayerNames {
		m[n] = 0
	}
	return m
}

// layerShare is one layer's share of traced op time.
type layerShare struct {
	Layer string  `json:"layer"`
	Share float64 `json:"share"`
}

// fillCommonLayers sets the metrics every workload reports: per-layer
// self time per op, the uncovered time and the tracing overhead
// (untraced against traced ops_per_s).
func fillCommonLayers(rec *record, agg *traceAgg, traced, untraced *phase) {
	m := rec.PerLayer
	ops := float64(traced.ops)
	for _, l := range layers {
		m[l+".self_ms"] = agg.selfMS[l] / ops
	}
	m["bench.uncovered_ms"] = agg.uncoveredMS / ops
	rate := func(p *phase) float64 { return float64(p.ops) / p.wall.Seconds() }
	m["bench.trace_overhead_pct"] = 100 * (rate(untraced)/rate(traced) - 1)
	if agg.opMS > 0 {
		rec.UncoveredShare = agg.uncoveredMS / agg.opMS
		for _, l := range layers {
			if v := agg.selfMS[l]; v > 0 {
				rec.LayerShares = append(rec.LayerShares, layerShare{Layer: l, Share: v / agg.opMS})
			}
		}
		rec.LayerShares = append(rec.LayerShares, layerShare{Layer: "uncovered", Share: rec.UncoveredShare})
		sort.SliceStable(rec.LayerShares, func(i, j int) bool { return rec.LayerShares[i].Share > rec.LayerShares[j].Share })
	}
}

// counters snapshots the process registry's counters and histogram
// sums/counts by metric key, for deltas of the program's own
// instruments across a phase.
type counters map[string]float64

func snapshotCounters() counters {
	c := counters{}
	for _, s := range obs.Default().Snapshot() {
		k := s.Key()
		switch s.Kind {
		case obs.KindCounter:
			c[k] = float64(s.Counter)
		case obs.KindHistogram:
			c[k+":sum"] = s.Hist.Sum
			c[k+":count"] = float64(s.Hist.Count)
		}
	}
	return c
}

// delta returns after-before of the instrument named name (with the
// suffix ":sum" or ":count" for a histogram), summed over its label
// sets.
func (after counters) delta(before counters, name string) float64 {
	base, suffix, _ := strings.Cut(name, ":")
	if suffix != "" {
		suffix = ":" + suffix
	}
	d := 0.0
	for k, v := range after {
		if !strings.HasSuffix(k, suffix) {
			continue
		}
		k0 := strings.TrimSuffix(k, suffix)
		if k0 == base || strings.HasPrefix(k0, base+"{") {
			d += v - before[k]
		}
	}
	return d
}
