package obs

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// DebugServer is the -debug-addr HTTP endpoint: it serves the
// registry at /metrics (Prometheus text format) and /metrics.json,
// the process expvars at /debug/vars, and the net/http/pprof suite
// under /debug/pprof/. It binds eagerly (so ":0" reports the chosen
// port in Addr) and serves in a background goroutine until Close or
// Shutdown.
type DebugServer struct {
	// Addr is the bound listen address, e.g. "127.0.0.1:43521".
	Addr string

	ln  net.Listener
	srv *http.Server
}

// expvarOnce guards the one-time expvar publication: expvar.Publish
// panics on duplicate names, and the expvar map is process-global, so
// only the first exported registry lands there (later servers still
// serve their own /metrics).
var expvarOnce sync.Once

// publishExpvar exports r's snapshot under the "xse" expvar once per
// process.
func publishExpvar(r *Registry) {
	expvarOnce.Do(func() {
		expvar.Publish("xse", expvar.Func(func() any {
			out := map[string]any{}
			for _, m := range r.Snapshot() {
				switch m.Kind {
				case KindCounter:
					out[m.Key()] = m.Counter
				case KindGauge:
					out[m.Key()] = m.Gauge
				case KindHistogram:
					out[m.Key()] = map[string]any{"count": m.Hist.Count, "sum": m.Hist.Sum}
				}
			}
			return out
		}))
	})
}

// RegisterDebugHandlers mounts the debug endpoints — /metrics,
// /metrics.json, /debug/vars and the /debug/pprof suite — for registry
// r on mux. ServeDebug uses it for the standalone -debug-addr
// listener; long-running daemons (xse-serve) use it to serve the same
// surface from their own mux alongside their API.
func RegisterDebugHandlers(mux *http.ServeMux, r *Registry) {
	publishExpvar(r)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteJSON(w, r)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	// The flight recorder: recent wide events, filterable by any field
	// (?event=request&route=embed, ?request_id=..., &n=20).
	mux.Handle("/debug/events", Events())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// debugConnState, when set, observes the connection states of the
// servers ServeDebug starts after it was set (a test hook).
var debugConnState func(net.Conn, http.ConnState)

// ServeDebug starts the debug endpoint on addr for registry r.
// Callers own the returned server and should Shutdown (graceful) or
// Close (abrupt) it on exit; the listener's real address is in Addr.
func ServeDebug(addr string, r *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	RegisterDebugHandlers(mux, r)
	d := &DebugServer{Addr: ln.Addr().String(), ln: ln, srv: &http.Server{Handler: mux, ConnState: debugConnState}}
	go func() { _ = d.srv.Serve(ln) }()
	return d, nil
}

// Shutdown stops accepting new connections and waits for in-flight
// requests (a scrape racing the process exit, a pprof profile mid
// capture) to complete, up to ctx's deadline. When the deadline
// expires first the remaining connections are closed abruptly and the
// context's error is returned.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	if d == nil {
		return nil
	}
	err := d.srv.Shutdown(ctx)
	if err != nil {
		_ = d.srv.Close()
	}
	return err
}

// Close stops serving immediately, dropping in-flight requests; prefer
// Shutdown on orderly exits.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}
