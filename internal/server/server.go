// Package server is the fault-tolerant embedding + migration daemon
// behind cmd/xse-serve: an HTTP/JSON service exposing the paper's
// pipeline — find embedding σ (/v1/embed), translate X_R queries
// across it (/v1/translate), migrate instances through σd or σd⁻¹
// (/v1/migrate, as JSON or as a multipart form whose document part
// streams off the wire) — as a long-running process that amortizes
// DTD parsing, NP-complete embedding search, ANFA construction and
// query compilation across requests via a shared, bounded,
// content-addressed artifact cache.
//
// Robustness is the design center, in four layers:
//
//   - Admission control: at most MaxInFlight requests execute; up to
//     MaxQueue more wait (deadline-aware, at most QueueWait); the rest
//     are shed with 429/503 + Retry-After instead of queue collapse.
//   - Per-request budgets: every request runs under a wall-clock
//     deadline and guard.Limits byte/node/depth caps clamped to the
//     server's own, threaded through search, translation and the
//     instance mapping as context cancellation — one pathological
//     schema pair cannot starve the process.
//   - Failure containment: per-request panic recovery (500 +
//     xse_server_panics_total) and a typed error→status mapping
//     mirroring the CLI exit-code conventions. Nothing is retried:
//     every stage is a deterministic function of its request, so a
//     second run would fail the same way.
//   - Graceful lifecycle: Shutdown flips readiness, stops admitting,
//     finishes (or, past the deadline, cancels) in-flight requests and
//     reports how many were force-canceled; accepted requests are
//     never silently dropped.
//
// The /metrics, /metrics.json, /debug/vars and /debug/pprof surfaces
// of internal/obs are mounted on the same listener.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/guard"
	"repro/internal/memo"
	"repro/internal/obs"
)

// Config tunes the daemon. The zero value of every field selects a
// production-plausible default.
type Config struct {
	// Addr is the listen address (default ":8080"; ":0" picks a port,
	// reported by Addr()).
	Addr string
	// MaxInFlight bounds concurrently executing requests (default
	// 4×GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot (default
	// 64; 0 queues nothing — beyond MaxInFlight sheds immediately).
	// Negative disables queueing too.
	MaxQueue int
	// QueueWait bounds how long one request may wait in the admission
	// queue (default 1s).
	QueueWait time.Duration
	// DefaultTimeout is the per-request wall-clock budget when the
	// request does not name one (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the budget a request may ask for (default 2m).
	MaxTimeout time.Duration
	// DrainGrace is how long Shutdown keeps the listener up — readiness
	// already down, requests already shed — so load balancers observe
	// the readiness flip before connections start failing (default 0).
	DrainGrace time.Duration
	// CacheSize bounds the schema-pair artifact cache (default 64
	// entries across embed results and translation pairs).
	CacheSize int
	// Limits caps per-request resource budgets server-wide; a request
	// may only tighten them. Zero fields take the guard defaults.
	Limits guard.Limits
	// Log receives operational lines (panics, drain progress); default
	// os.Stderr via the CLI, io.Discard when nil here.
	Log io.Writer
	// LogFormat selects wide-event request logging on Log: "json"
	// emits one JSON object per request, "text" the slog text format,
	// "" disables the log lines. The in-process flight recorder behind
	// /debug/events records every request event regardless.
	LogFormat string
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	c.Limits = c.Limits.WithDefaults()
	if c.Log == nil {
		c.Log = io.Discard
	}
	return c
}

// Server is one daemon instance. Construct with New, bind with Start,
// stop with Shutdown.
type Server struct {
	cfg Config

	adm       *admission
	artifacts *memo.Cache[string, any]

	mux  *http.ServeMux
	http *http.Server
	ln   net.Listener

	baseCtx    context.Context
	cancelBase context.CancelFunc

	// em delivers one wide event per request to the structured log
	// (Config.LogFormat) and the process flight recorder
	// (/debug/events).
	em *obs.Emitter

	draining atomic.Bool
	inflight atomic.Int64 // this server's own accounting (metrics gauges are process-wide)
}

// New builds a server from cfg without binding the listener.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		adm: newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		artifacts: memo.New[string, any]("server: artifact cache", cfg.CacheSize,
			memo.Counters{Hits: mCacheHits, Misses: mCacheMisses}),
		mux: http.NewServeMux(),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	// An unknown LogFormat is caught by the xse-serve flag check; here
	// it degrades to recorder-only events rather than failing New.
	logger, _ := obs.NewLogger(cfg.Log, cfg.LogFormat)
	s.em = obs.NewEmitter(logger, obs.Events())
	s.routes()
	return s
}

// routes mounts the API, the health probes and the obs debug surface
// on one mux.
func (s *Server) routes() {
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Liveness: the process serves; draining is still alive.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		// The body reports drain progress — queue depth and in-flight
		// count — so operators and the smoke scripts can watch a
		// SIGTERM drain converge, not just see the status flip.
		draining := s.draining.Load()
		status, code := "ready", http.StatusOK
		if draining {
			status, code = "draining", http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		fmt.Fprintf(w, "{\"status\":%q,\"draining\":%v,\"queue_depth\":%d,\"inflight\":%d}\n",
			status, draining, s.adm.queued.Load(), s.inflight.Load())
	})
	s.mux.Handle("/v1/embed", s.api("embed", s.handleEmbed))
	s.mux.Handle("/v1/translate", s.api("translate", s.handleTranslate))
	s.mux.Handle("/v1/migrate", s.api("migrate", s.handleMigrate))
	obs.RegisterDebugHandlers(s.mux, obs.Default())
}

// Handler exposes the daemon's full handler tree (tests drive it via
// httptest; Start serves it on a real listener).
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds the listener and serves in a background goroutine.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.http = &http.Server{
		Handler: s.mux,
		BaseContext: func(net.Listener) context.Context {
			// Request contexts derive from baseCtx, so drain
			// force-cancellation reaches every in-flight stage.
			return s.baseCtx
		},
	}
	go func() { _ = s.http.Serve(ln) }()
	return nil
}

// Addr is the bound listen address (useful with Addr ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains the daemon: readiness flips to 503 and new API
// requests are shed immediately (so load balancers and clients back
// off), then — after DrainGrace — the listener closes and Shutdown
// waits for in-flight requests. If ctx expires first, the remaining
// requests' work is canceled through their contexts (they answer 504;
// the count is in xse_server_drain_canceled_total) and the connections
// are closed. Accepted requests are never silently dropped: every
// admitted request writes a response before its connection dies.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		mDraining.Add(1)
		defer mDraining.Add(-1)
	}
	if s.cfg.DrainGrace > 0 {
		t := time.NewTimer(s.cfg.DrainGrace)
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
	if s.http == nil {
		// Never started (handler-only use): nothing to drain.
		s.cancelBase()
		return nil
	}
	err := s.http.Shutdown(ctx)
	if err != nil {
		// Deadline passed with requests still running: cancel their
		// work and give them a moment to write their 504s before the
		// connections are torn down.
		forced := s.inflight.Load()
		if forced > 0 {
			mDrainDropped.Add(uint64(forced))
			fmt.Fprintf(s.cfg.Log, "xse-serve: drain deadline exceeded; canceling %d in-flight request(s)\n", forced)
		}
		s.cancelBase()
		grace, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err2 := s.http.Shutdown(grace); err2 != nil {
			_ = s.http.Close()
		}
	}
	s.cancelBase()
	return err
}

// requestID resolves the request's correlation ID: an X-Request-Id
// header the caller supplied (sanitized and bounded so arbitrary bytes
// cannot ride into logs and events), or a freshly minted one.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id == "" || len(id) > 64 {
		return obs.NewRequestID()
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return obs.NewRequestID()
		}
	}
	return id
}

// api wraps an endpoint body with the containment layers, outermost
// first: metrics, wide-event accounting, panic recovery, method check,
// drain shed, admission. Every request gets a correlation ID (echoed
// in the X-Request-Id response header and in error bodies) and emits
// exactly one wide "request" event — route, request id, status,
// outcome, the elapsed ms of each stage, plus whatever the handler
// annotated via obs.EventFrom — to the structured log and the
// /debug/events flight recorder. The request is one server.request
// stage (latency_ms, xse_server_request_seconds) made of the
// server.admission (queue_wait_ms), server.decode (decode_ms),
// server.lookup (lookup_ms), server.work (work_ms) and server.respond
// (respond_ms) stages, so those fields account for latency_ms.
func (s *Server) api(endpoint string, fn func(ctx context.Context, r *http.Request) (any, error)) http.Handler {
	met := epMetrics[endpoint]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := requestID(r)
		ev := obs.NewEvent("request").
			Str("request_id", reqID).
			Str("route", endpoint)
		// The request's context carries the correlation ID (echoed by
		// every stage's span), the wide event (which every stage's
		// elapsed time and the handler's annotations land on) and the
		// emitter (the search.restart stream under explain).
		ctx := obs.WithRequestID(r.Context(), reqID)
		ctx = obs.WithEvent(ctx, ev)
		ctx = obs.WithEmitter(ctx, s.em)
		ctx, rq := met.request.Begin(ctx)
		met.requests.Inc()
		w.Header().Set("X-Request-Id", reqID)

		// respond writes the response as the request's last stage, then
		// ends the request and emits its event. Once a response is
		// written, later calls do nothing (a write that panics leaves
		// the recovery's 500 to answer).
		answered := false
		respond := func(status int, outcome string, write func()) {
			if answered {
				return
			}
			_, rt := stRespond.Begin(ctx)
			write()
			rt.End()
			answered = true
			ev.Int("status", int64(status)).Str("outcome", outcome)
			rq.End()
			s.em.Emit(ev)
		}
		fail := func(ae *apiError) {
			respond(ae.status, ae.code, func() { s.writeError(w, reqID, ae) })
		}
		defer func() {
			if p := recover(); p != nil {
				mPanics.Inc()
				fmt.Fprintf(s.cfg.Log, "xse-serve: %s: panic recovered: %v\n", endpoint, p)
				ev.Str("panic", fmt.Sprint(p))
				fail(&apiError{
					status: http.StatusInternalServerError,
					code:   "internal",
					msg:    "internal error (panic recovered)",
				})
			}
		}()

		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			fail(&apiError{status: http.StatusMethodNotAllowed, code: "invalid",
				msg: "use POST with a JSON body"})
			return
		}
		if s.draining.Load() {
			mShed[shedDraining].Inc()
			ev.Str("shed_reason", shedDraining)
			fail(toAPIError(&shedError{reason: shedDraining, retryAfter: 5 * time.Second}))
			return
		}
		_, at := stAdmission.Begin(ctx)
		release, err := s.adm.acquire(ctx)
		at.End()
		if err != nil {
			var se *shedError
			if errors.As(err, &se) {
				ev.Str("shed_reason", se.reason)
			}
			fail(toAPIError(err))
			return
		}
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			release()
		}()

		// The request body is bounded before any decoding: a request
		// larger than the server's input cap is a limit violation, not
		// an OOM.
		if s.cfg.Limits.MaxInputBytes > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, int64(s.cfg.Limits.MaxInputBytes))
		}
		out, err := fn(ctx, r)
		if err != nil {
			fail(toAPIError(err))
			return
		}
		if raw, ok := out.(*rawXML); ok {
			respond(http.StatusOK, "ok", func() {
				countResponse(http.StatusOK)
				w.Header().Set("Content-Type", "application/xml")
				w.WriteHeader(http.StatusOK)
				io.WriteString(w, raw.body)
			})
			return
		}
		respond(http.StatusOK, "ok", func() { s.writeJSON(w, http.StatusOK, out) })
	})
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RequestID echoes the correlation ID so a failing caller can quote
	// the exact /debug/events entry (and log line) for its request.
	RequestID string `json:"request_id,omitempty"`
}

func (s *Server) writeError(w http.ResponseWriter, reqID string, ae *apiError) {
	if ae.retryAfter > 0 {
		secs := int(ae.retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	s.writeJSON(w, ae.status, errorBody{Error: errorDetail{Code: ae.code, Message: ae.msg, RequestID: reqID}})
}

// writeJSON renders body with one encoder into one buffer. HTML
// escaping is off: a migrated document's <, > and & stay themselves
// instead of growing to \u003c, \u003e and \u0026.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(body); err != nil {
		// Response types are plain structs; this is unreachable short
		// of a programming error.
		status = http.StatusInternalServerError
		buf.Reset()
		buf.WriteString(`{"error":{"code":"internal","message":"response encoding failed"}}` + "\n")
	}
	countResponse(status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}
