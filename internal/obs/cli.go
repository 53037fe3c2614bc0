package obs

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

// CLI bundles the telemetry flags every command shares: the
// -cpuprofile/-memprofile pair, -debug-addr, -trace-out, -debug-linger
// and -log-format. Register with NewCLI before flag.Parse, call Start
// right after it, and route every exit path (normal returns and fatal
// exits alike) through Close so profiles, traces and the run's wide
// event are flushed.
type CLI struct {
	name string
	prof *Profiles

	debugAddr string
	traceOut  string
	linger    time.Duration
	logFormat string

	tracer *Tracer
	srv    *DebugServer
	closed bool

	// The run's wide event: one structured "cli" line per invocation
	// when -log-format is set, correlated by a run-scoped request ID
	// that Start threads into the context.
	ev    *Event
	em    *Emitter
	start time.Time
	exit  int
}

// NewCLI registers the shared telemetry flags on fs for the named
// command.
func NewCLI(name string, fs *flag.FlagSet) *CLI {
	c := &CLI{name: name, prof: AddProfileFlags(fs)}
	fs.StringVar(&c.debugAddr, "debug-addr", "",
		"serve /metrics, /debug/vars, /debug/events and /debug/pprof on this address (\":0\" picks a free port)")
	fs.StringVar(&c.traceOut, "trace-out", "",
		"write the run's spans to this file as Chrome trace_event JSON")
	fs.DurationVar(&c.linger, "debug-linger", 0,
		"keep the -debug-addr server up this long after the run completes (for scrapes)")
	fs.StringVar(&c.logFormat, "log-format", "",
		"emit one wide event per run on stderr as structured logs: \"json\" or \"text\" (default off)")
	return c
}

// Start begins CPU profiling, binds the debug endpoint (announcing the
// resolved address on stderr — the flag may say ":0") and, when
// -trace-out was given, attaches a fresh tracer to ctx. With
// -log-format set it also mints the run's request ID, attaches it and
// an emitter to ctx, and opens the run's wide event (closed and
// emitted by Close). The returned context is the one to run the
// command under.
func (c *CLI) Start(ctx context.Context) (context.Context, error) {
	if err := c.prof.Start(); err != nil {
		return ctx, err
	}
	if c.debugAddr != "" {
		srv, err := ServeDebug(c.debugAddr, Default())
		if err != nil {
			return ctx, fmt.Errorf("debug-addr: %w", err)
		}
		c.srv = srv
		fmt.Fprintf(os.Stderr, "%s: debug server listening on http://%s/metrics\n", c.name, srv.Addr)
	}
	if c.traceOut != "" {
		c.tracer = NewTracer()
		ctx = WithTracer(ctx, c.tracer)
	}
	logger, err := NewLogger(os.Stderr, c.logFormat)
	if err != nil {
		return ctx, fmt.Errorf("log-format: %w", err)
	}
	if logger != nil {
		runID := NewRequestID()
		c.em = NewEmitter(logger, Events())
		c.ev = NewEvent("cli").Str("command", c.name).Str("request_id", runID)
		c.start = time.Now()
		ctx = WithRequestID(ctx, runID)
		ctx = WithEmitter(ctx, c.em)
		ctx = WithEvent(ctx, c.ev)
	}
	return ctx, nil
}

// LogFormat returns the -log-format value ("", "json" or "text"), for
// commands that thread it into their own subsystems (xse-serve's
// per-request wide events).
func (c *CLI) LogFormat() string {
	if c == nil {
		return ""
	}
	return c.logFormat
}

// SetExit records the exit code the process is about to leave with, so
// the run's wide event reports the true outcome on fatal paths too.
func (c *CLI) SetExit(code int) {
	if c == nil {
		return
	}
	c.exit = code
}

// Close flushes everything Start opened: emits the run's wide event,
// stops the profiles, writes the trace file, lingers if asked and
// shuts the debug server down. It is idempotent so commands can both
// defer it and call it from their fatal-exit hook; failures are
// reported to stderr, never returned, because the exit code belongs
// to the command's own outcome. The wide event is emitted before the
// linger window so a scrape of /debug/events during the linger sees
// the completed run.
func (c *CLI) Close() {
	if c == nil || c.closed {
		return
	}
	c.closed = true
	if c.ev != nil {
		c.ev.Int("exit_code", int64(c.exit))
		c.ev.Dur("elapsed_ms", time.Since(c.start))
		c.em.Emit(c.ev)
	}
	c.prof.StopLogged(c.name)
	if c.tracer != nil && c.traceOut != "" {
		f, err := os.Create(c.traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: trace-out: %v\n", c.name, err)
		} else {
			if err := c.tracer.WriteChromeTrace(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: trace-out: %v\n", c.name, err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: trace-out: %v\n", c.name, err)
			} else {
				fmt.Fprintf(os.Stderr, "%s: wrote %d spans to %s\n", c.name, c.tracer.Len(), c.traceOut)
			}
		}
	}
	if c.srv != nil {
		if c.linger > 0 {
			time.Sleep(c.linger)
		}
		// Drain rather than abandon: a scrape that raced the end of the
		// linger window still completes (bounded, so a wedged client
		// cannot hold the process open).
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = c.srv.Shutdown(ctx)
		cancel()
	}
}
