// Command xse-serve is the long-running embedding + migration daemon:
// an HTTP/JSON service that amortizes DTD parsing, embedding search,
// ANFA construction and query compilation across requests through a
// shared, bounded, content-addressed artifact cache, with admission
// control, per-request budgets and graceful drain (see
// internal/server and DESIGN.md "Service layer").
//
// Usage:
//
//	xse-serve [-addr :8080] [flags]
//
//	-addr a             listen address (":0" picks a free port, announced on stderr)
//	-max-inflight n     concurrently executing requests (default 4×GOMAXPROCS)
//	-max-queue n        admission queue length beyond that (default 64)
//	-queue-wait d       max time a request waits for a slot (default 1s)
//	-default-timeout d  per-request budget when the request names none (default 10s)
//	-max-timeout d      cap on the budget a request may ask for (default 2m)
//	-drain-timeout d    max time to finish in-flight requests on SIGTERM (default 15s)
//	-drain-grace d      readiness-down to listener-close gap for LB deregistration (default 0)
//	-cache-size n       schema-pair artifact cache entries (default 64)
//	-max-input n        max request body / input size in bytes (0 = default 64MiB)
//	-log-format f       per-request wide events on stderr: "json" or "text" (default off)
//	-fault spec         test-only fault injection, repeatable (mode:stage[:arg], see internal/guard)
//
// Endpoints: POST /v1/embed, /v1/translate, /v1/migrate (JSON;
// /v1/migrate also takes multipart/form-data with the same fields, the
// document part last, and answers raw XML; see README for curl
// examples); GET /healthz (liveness), /readyz (readiness — JSON body
// with drain state and queue depth, 503 while draining), /metrics,
// /metrics.json, /debug/vars, /debug/events (the flight recorder of
// recent request events, filterable by query params), /debug/pprof/*
// (the internal/obs surface).
//
// Every request carries a correlation ID: the X-Request-Id request
// header when present (else minted), echoed in the response header and
// error bodies, stamped on the request's wide event and retrievable
// from /debug/events?request_id=....
//
// Signals: SIGTERM and SIGINT start a graceful drain — readiness
// flips, new requests are shed with 503 + Retry-After, in-flight
// requests finish (or are canceled at -drain-timeout and answer 504).
// A second signal forces immediate exit. Exit code 0 after a clean
// drain, 1 when the drain deadline forced cancellations.
//
// The shared telemetry flags (-trace-out, -cpuprofile, -memprofile;
// see internal/obs) are also accepted. -debug-addr works but is
// redundant: the service listener already serves /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/server"
)

const (
	exitInternal = 1
	exitUsage    = 2
)

// cleanup is run by fatalf before exiting, so profiles, traces and the
// run's wide event (with the real exit code) are flushed even on fatal
// paths.
var cleanup = func(code int) {}

// faultFlags collects repeated -fault specs.
type faultFlags []guard.FaultSpec

func (f *faultFlags) String() string { return fmt.Sprint([]guard.FaultSpec(*f)) }

func (f *faultFlags) Set(s string) error {
	spec, err := guard.ParseFaultSpec(s)
	if err != nil {
		return err
	}
	*f = append(*f, spec)
	return nil
}

func main() {
	var faults faultFlags
	var (
		addr           = flag.String("addr", ":8080", "listen address (\":0\" picks a free port)")
		maxInFlight    = flag.Int("max-inflight", 0, "max concurrently executing requests (0 = 4×GOMAXPROCS)")
		maxQueue       = flag.Int("max-queue", 0, "admission queue length (0 = default 64, negative = no queue)")
		queueWait      = flag.Duration("queue-wait", 0, "max admission queue wait (0 = default 1s)")
		defaultTimeout = flag.Duration("default-timeout", 0, "per-request budget when unspecified (0 = default 10s)")
		maxTimeout     = flag.Duration("max-timeout", 0, "cap on requested per-request budgets (0 = default 2m)")
		drainTimeout   = flag.Duration("drain-timeout", 15*time.Second, "max time to finish in-flight requests on SIGTERM/SIGINT")
		drainGrace     = flag.Duration("drain-grace", 0, "hold the listener open this long after readiness drops (LB deregistration)")
		cacheSize      = flag.Int("cache-size", 0, "schema-pair artifact cache entries (0 = default 64)")
		maxInput       = flag.Int("max-input", 0, "max request body / input size in bytes (0 = default 64MiB, -1 = unlimited)")
	)
	flag.Var(&faults, "fault", "test-only fault injection spec mode:stage[:arg] (repeatable)")
	tel := obs.NewCLI("xse-serve", flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(exitUsage)
	}
	if _, err := tel.Start(context.Background()); err != nil {
		fatalf("%v", err)
	}
	cleanup = func(code int) { tel.SetExit(code); tel.Close() }
	defer tel.Close()

	if len(faults) > 0 {
		fmt.Fprintf(os.Stderr, "xse-serve: WARNING: fault injection active (%d spec(s)) — test use only\n", len(faults))
		guard.SetFaultPlan(guard.NewFaultPlan(faults...))
	}

	srv := server.New(server.Config{
		Addr:           *addr,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		DrainGrace:     *drainGrace,
		CacheSize:      *cacheSize,
		Limits:         guard.Limits{MaxInputBytes: *maxInput},
		Log:            os.Stderr,
		LogFormat:      tel.LogFormat(),
	})
	if err := srv.Start(); err != nil {
		fatalf("listen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "xse-serve: listening on http://%s (POST /v1/{embed,translate,migrate}; GET /healthz /readyz /metrics)\n", srv.Addr())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigs
	fmt.Fprintf(os.Stderr, "xse-serve: %s: draining (timeout %s) — readiness down, shedding new requests\n", sig, *drainTimeout)

	// A second signal skips the drain.
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "xse-serve: %s: second signal, exiting immediately\n", sig)
		tel.SetExit(exitInternal)
		tel.Close()
		os.Exit(exitInternal)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "xse-serve: drain incomplete: %v\n", err)
		tel.SetExit(exitInternal)
		tel.Close()
		os.Exit(exitInternal)
	}
	fmt.Fprintln(os.Stderr, "xse-serve: drained cleanly")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xse-serve: "+format+"\n", args...)
	cleanup(exitInternal)
	os.Exit(exitInternal)
}
