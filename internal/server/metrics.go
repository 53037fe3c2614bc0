package server

import (
	"strconv"

	"repro/internal/obs"
)

// Package-level instruments on the process registry, following the
// translate/xpath convention: the daemon is one process, so its
// counters live in obs.Default() and are served by its own /metrics
// endpoint. Gauges use Add (never Set) so concurrently running servers
// in tests compose instead of clobbering each other.
var (
	mInflight = obs.Default().Gauge("xse_server_inflight",
		"Requests currently executing (admitted, not yet responded).")
	mQueueDepth = obs.Default().Gauge("xse_server_queue_depth",
		"Requests waiting in the admission queue for an execution slot.")
	mDraining = obs.Default().Gauge("xse_server_draining",
		"Servers in this process currently draining (readiness down).")
	mPanics = obs.Default().Counter("xse_server_panics_total",
		"Request handlers that panicked and were converted to 500s.")
	mCacheHits = obs.Default().Counter("xse_server_cache_hits_total",
		"Requests served from the schema-pair artifact cache (including single-flight joins).")
	mCacheMisses = obs.Default().Counter("xse_server_cache_misses_total",
		"Requests that built a schema-pair artifact cache entry.")
	mDrainDropped = obs.Default().Counter("xse_server_drain_canceled_total",
		"In-flight requests force-canceled because drain exceeded its deadline.")
)

// The stages of one request, in order; each handler runs decode,
// lookup and (for translate and migrate) work, and the api wrapper the
// rest. Their event fields sum to the request's latency_ms up to the
// few statements between stages.
var (
	stAdmission = obs.NewStage("server.admission", nil, "queue_wait_ms")
	stDecode    = obs.NewStage("server.decode", nil, "decode_ms")
	stLookup    = obs.NewStage("server.lookup", nil, "lookup_ms")
	stWork      = obs.NewStage("server.work", nil, "work_ms")
	stRespond   = obs.NewStage("server.respond", nil, "respond_ms")
)

// endpointMetrics is the per-endpoint slice of the request families:
// the request counter and the server.request stage, whose histogram is
// the endpoint's child of xse_server_request_seconds.
type endpointMetrics struct {
	requests *obs.Counter
	request  *obs.Stage
}

// epMetrics pre-creates the labeled children for the API endpoints so
// hot-path increments never format labels.
var epMetrics = func() map[string]endpointMetrics {
	m := make(map[string]endpointMetrics)
	for _, ep := range []string{"embed", "translate", "migrate"} {
		m[ep] = endpointMetrics{
			requests: obs.Default().CounterL("xse_server_requests_total",
				"API requests received, by endpoint.", "endpoint", ep),
			request: obs.NewStage("server.request", obs.Default().HistogramL("xse_server_request_seconds",
				"End-to-end request latency (admission wait included), by endpoint.",
				obs.LatencyBuckets, "endpoint", ep), "latency_ms"),
		}
	}
	return m
}()

// mShed pre-creates the shed-reason children.
var mShed = func() map[string]*obs.Counter {
	m := make(map[string]*obs.Counter)
	for _, reason := range []string{shedQueueFull, shedQueueTimeout, shedDraining} {
		m[reason] = obs.Default().CounterL("xse_server_shed_total",
			"Requests shed by admission control instead of queued, by reason.",
			"reason", reason)
	}
	return m
}()

// mResponses pre-creates the per-status response counters for every
// status the error mapping can produce.
var mResponses = func() map[int]*obs.Counter {
	m := make(map[int]*obs.Counter)
	for _, status := range []int{200, 400, 404, 405, 413, 422, 429, 500, 503, 504} {
		m[status] = obs.Default().CounterL("xse_server_responses_total",
			"API responses sent, by HTTP status.", "status", strconv.Itoa(status))
	}
	return m
}()

// countResponse records one response by status (unknown statuses fall
// into the 500 family — the mapping table should make this impossible).
func countResponse(status int) {
	if c, ok := mResponses[status]; ok {
		c.Inc()
		return
	}
	mResponses[500].Inc()
}
