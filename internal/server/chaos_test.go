package server

// Chaos suite: drives the daemon through injected faults
// (internal/guard's counted fault plans) and asserts the containment
// behaviors exactly — fault statuses, shed statuses, drain outcomes.
// Everything here runs under -race in make check.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/workload"
)

// migrateReq is the canonical chaos request: a small migrate whose
// server.migrate stage is where most plans inject.
func migrateReq() MigrateRequest {
	return MigrateRequest{
		schemaPair: classPair(),
		Embedding:  workload.ClassEmbedding().Marshal(),
		Document:   classDocXML,
	}
}

func mustBody(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestChaosRetryBudget: the migrate stage has no retry budget — an
// injected error at server.migrate is not retried, so the stage runs
// once and the request answers 500 internal.
func TestChaosRetryBudget(t *testing.T) {
	t.Run("retry disabled", func(t *testing.T) {
		plan := guard.NewFaultPlan(guard.FaultSpec{
			Stage: "server.migrate", Mode: guard.FaultModeError, Count: 1,
		})
		restore := guard.SetFaultPlan(plan)
		defer restore()
		s := testServer(t, Config{})

		resp, body := postJSON(t, s, "/v1/migrate", migrateReq())
		if resp.StatusCode != 500 || errorCode(t, body) != "internal" {
			t.Fatalf("status = %d code = %q, want 500 internal", resp.StatusCode, errorCode(t, body))
		}
		if hits := plan.Hits("server.migrate"); hits != 1 {
			t.Errorf("stage hit %d times, want exactly 1", hits)
		}
	})
}

// TestChaosPanicRecovery: an injected panic is contained to its
// request — 500 + counter, and the daemon keeps serving.
func TestChaosPanicRecovery(t *testing.T) {
	plan := guard.NewFaultPlan(guard.FaultSpec{
		Stage: "server.migrate", Mode: guard.FaultModePanic, Count: 1,
	})
	restore := guard.SetFaultPlan(plan)
	defer restore()
	s := testServer(t, Config{})

	panicsBefore := mPanics.Value()
	resp, body := postJSON(t, s, "/v1/migrate", migrateReq())
	if resp.StatusCode != 500 || errorCode(t, body) != "internal" {
		t.Fatalf("status = %d code = %q, want 500 internal", resp.StatusCode, errorCode(t, body))
	}
	if got := mPanics.Value() - panicsBefore; got != 1 {
		t.Errorf("xse_server_panics_total delta = %d, want 1", got)
	}

	// The process survived; the next request works.
	resp, body = postJSON(t, s, "/v1/migrate", migrateReq())
	if resp.StatusCode != 200 {
		t.Fatalf("post-panic status = %d, want 200: %v", resp.StatusCode, body)
	}
}

// TestChaosPanicDoesNotPoisonKey: a build that panics inside the
// artifact cache is withdrawn, so the next identical request rebuilds
// at once instead of blocking on a dead in-flight entry until its
// deadline (504).
func TestChaosPanicDoesNotPoisonKey(t *testing.T) {
	restore := guard.SetFaultPlan(guard.NewFaultPlan(guard.FaultSpec{
		Stage: "server.embed.search", Mode: guard.FaultModePanic, Count: 1,
	}))
	defer restore()
	const timeout = 2 * time.Second
	s := testServer(t, Config{DefaultTimeout: timeout})
	req := EmbedRequest{schemaPair: classPair(), Att: "uniform", Seed: 3, Restarts: 60}

	panicsBefore := mPanics.Value()
	resp, body := postJSON(t, s, "/v1/embed", req)
	if resp.StatusCode != 500 || errorCode(t, body) != "internal" {
		t.Fatalf("status = %d code = %q, want 500 internal", resp.StatusCode, errorCode(t, body))
	}
	if got := mPanics.Value() - panicsBefore; got != 1 {
		t.Errorf("xse_server_panics_total delta = %d, want 1", got)
	}

	start := time.Now()
	resp, body = postJSON(t, s, "/v1/embed", req)
	elapsed := time.Since(start)
	if resp.StatusCode != 200 {
		t.Fatalf("post-panic status = %d after %s, want 200: %v", resp.StatusCode, elapsed, body)
	}
	if cached, _ := body["cached"].(bool); cached {
		t.Error("post-panic embed reported cached=true; the panicked build must not be cached")
	}
	if elapsed > timeout/2 {
		t.Errorf("post-panic embed took %s, want well inside the %s timeout", elapsed, timeout)
	}
}

// TestChaosShed: overload is shed explicitly — 429 + Retry-After —
// rather than queued without bound.
func TestChaosShed(t *testing.T) {
	// One execution slot, one queue slot, slow requests.
	restore := guard.SetFaultPlan(guard.NewFaultPlan(guard.FaultSpec{
		Stage: "server.migrate", Mode: guard.FaultModeLatency, Latency: 700 * time.Millisecond,
	}))
	defer restore()
	s := testServer(t, Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 5 * time.Second})

	shedBefore := mShed[shedQueueFull].Value()
	var wg sync.WaitGroup
	status := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post("http://"+s.Addr()+"/v1/migrate", "application/json",
				strings.NewReader(mustBody(t, migrateReq())))
			if err == nil {
				status[i] = resp.StatusCode
				resp.Body.Close()
			}
		}(i)
		// Let request 0 occupy the slot and request 1 the queue.
		time.Sleep(150 * time.Millisecond)
	}

	// Slot and queue are both full: this one is shed immediately.
	resp, body := postJSON(t, s, "/v1/migrate", migrateReq())
	if resp.StatusCode != 429 || errorCode(t, body) != "shed" {
		t.Errorf("status = %d code = %q, want 429 shed", resp.StatusCode, errorCode(t, body))
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	if got := mShed[shedQueueFull].Value() - shedBefore; got < 1 {
		t.Error("xse_server_shed_total{reason=queue_full} did not increase")
	}

	// The accepted requests still complete.
	wg.Wait()
	for i, st := range status {
		if st != 200 {
			t.Errorf("accepted request %d finished with status %d, want 200", i, st)
		}
	}
}

// TestChaosShedQueueTimeout: a queued request does not wait past
// QueueWait.
func TestChaosShedQueueTimeout(t *testing.T) {
	restore := guard.SetFaultPlan(guard.NewFaultPlan(guard.FaultSpec{
		Stage: "server.migrate", Mode: guard.FaultModeLatency, Latency: time.Second,
	}))
	defer restore()
	s := testServer(t, Config{MaxInFlight: 1, MaxQueue: 4, QueueWait: 100 * time.Millisecond})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post("http://"+s.Addr()+"/v1/migrate", "application/json",
			strings.NewReader(mustBody(t, migrateReq())))
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(150 * time.Millisecond) // slot occupied for ~1s now

	shedBefore := mShed[shedQueueTimeout].Value()
	start := time.Now()
	resp, body := postJSON(t, s, "/v1/migrate", migrateReq())
	if resp.StatusCode != 429 || errorCode(t, body) != "shed" {
		t.Errorf("status = %d code = %q, want 429 shed", resp.StatusCode, errorCode(t, body))
	}
	if elapsed := time.Since(start); elapsed > 700*time.Millisecond {
		t.Errorf("queued request waited %s, want ~QueueWait (100ms)", elapsed)
	}
	if got := mShed[shedQueueTimeout].Value() - shedBefore; got != 1 {
		t.Errorf("xse_server_shed_total{reason=queue_timeout} delta = %d, want 1", got)
	}
	wg.Wait()
}

// TestChaosDrainUnderLoad: SIGTERM-style drain with slow requests in
// flight — every accepted request completes with 200, none are
// dropped, and the daemon then refuses new connections.
func TestChaosDrainUnderLoad(t *testing.T) {
	restore := guard.SetFaultPlan(guard.NewFaultPlan(guard.FaultSpec{
		Stage: "server.migrate", Mode: guard.FaultModeLatency, Latency: 600 * time.Millisecond,
	}))
	defer restore()
	s := testServer(t, Config{MaxInFlight: 8})
	const n = 8

	body := mustBody(t, migrateReq())
	var wg sync.WaitGroup
	results := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post("http://"+s.Addr()+"/v1/migrate", "application/json", strings.NewReader(body))
			if err != nil {
				results[i] = "error: " + err.Error()
				return
			}
			defer resp.Body.Close()
			var out MigrateResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				results[i] = fmt.Sprintf("status %d, bad body: %v", resp.StatusCode, err)
				return
			}
			if resp.StatusCode != 200 || out.Document == "" {
				results[i] = fmt.Sprintf("status %d, document %d bytes", resp.StatusCode, len(out.Document))
				return
			}
			results[i] = "ok"
		}(i)
	}

	// Give every request time to be admitted (the slot pool fits all 8),
	// then drain with a generous deadline.
	time.Sleep(200 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v (drain should finish in-flight work)", err)
	}
	wg.Wait()
	for i, r := range results {
		if r != "ok" {
			t.Errorf("accepted request %d lost during drain: %s", i, r)
		}
	}

	// Drained means gone: new connections are refused.
	if _, err := http.Post("http://"+s.Addr()+"/v1/migrate", "application/json", strings.NewReader(body)); err == nil {
		t.Error("post-drain request succeeded, want connection error")
	}
}

// TestChaosDrainDeadline: when the drain deadline passes, in-flight
// work is force-canceled — the requests answer 504 (never a silent
// drop) and the cancellations are counted.
func TestChaosDrainDeadline(t *testing.T) {
	restore := guard.SetFaultPlan(guard.NewFaultPlan(guard.FaultSpec{
		Stage: "server.migrate", Mode: guard.FaultModeLatency, Latency: time.Minute,
	}))
	defer restore()
	s := testServer(t, Config{})

	droppedBefore := mDrainDropped.Value()
	var wg sync.WaitGroup
	wg.Add(1)
	var gotStatus int
	go func() {
		defer wg.Done()
		resp, err := http.Post("http://"+s.Addr()+"/v1/migrate", "application/json",
			strings.NewReader(mustBody(t, migrateReq())))
		if err == nil {
			gotStatus = resp.StatusCode
			resp.Body.Close()
		}
	}()
	time.Sleep(150 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown returned nil, want deadline error (request needed a minute)")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("forced drain took %s, want prompt exit after the deadline", elapsed)
	}
	wg.Wait()
	if gotStatus != 504 {
		t.Errorf("force-canceled request answered %d, want 504", gotStatus)
	}
	if got := mDrainDropped.Value() - droppedBefore; got != 1 {
		t.Errorf("xse_server_drain_canceled_total delta = %d, want 1", got)
	}
}

// TestChaosDrainSheds: while draining, readiness reports 503 and new
// API requests are shed with 503 + Retry-After.
func TestChaosDrainSheds(t *testing.T) {
	restore := guard.SetFaultPlan(guard.NewFaultPlan(guard.FaultSpec{
		Stage: "server.migrate", Mode: guard.FaultModeLatency, Latency: 400 * time.Millisecond,
	}))
	defer restore()
	// DrainGrace keeps the listener up long enough to observe the
	// shedding window.
	s := testServer(t, Config{DrainGrace: 600 * time.Millisecond})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post("http://"+s.Addr()+"/v1/migrate", "application/json",
			strings.NewReader(mustBody(t, migrateReq())))
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond)

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- s.Shutdown(ctx)
	}()
	time.Sleep(150 * time.Millisecond) // inside the DrainGrace window

	resp, err := http.Get("http://" + s.Addr() + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("/readyz during drain = %d, want 503", resp.StatusCode)
	}

	shedBefore := mShed[shedDraining].Value()
	resp2, body := postJSON(t, s, "/v1/migrate", migrateReq())
	if resp2.StatusCode != 503 || errorCode(t, body) != "draining" {
		t.Errorf("status = %d code = %q, want 503 draining", resp2.StatusCode, errorCode(t, body))
	}
	if ra := resp2.Header.Get("Retry-After"); ra == "" {
		t.Error("draining shed without Retry-After header")
	}
	if got := mShed[shedDraining].Value() - shedBefore; got != 1 {
		t.Errorf("xse_server_shed_total{reason=draining} delta = %d, want 1", got)
	}

	wg.Wait()
	if err := <-drainDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestChaosCacheColdWarmLatency: the acceptance check — a second
// identical /v1/embed is served from the artifact cache at >=10x lower
// latency than the cold request. Injected latency on the search stage
// makes the contrast deterministic.
func TestChaosCacheColdWarmLatency(t *testing.T) {
	restore := guard.SetFaultPlan(guard.NewFaultPlan(guard.FaultSpec{
		Stage: "server.embed.search", Mode: guard.FaultModeLatency, Latency: 300 * time.Millisecond,
	}))
	defer restore()
	s := testServer(t, Config{})
	req := EmbedRequest{schemaPair: classPair(), Att: "uniform", Seed: 3, Restarts: 60}

	hitsBefore := mCacheHits.Value()
	coldStart := time.Now()
	resp, body := postJSON(t, s, "/v1/embed", req)
	cold := time.Since(coldStart)
	if resp.StatusCode != 200 {
		t.Fatalf("cold embed status = %d: %v", resp.StatusCode, body)
	}
	if cached, _ := body["cached"].(bool); cached {
		t.Fatal("cold embed reported cached=true")
	}

	warmStart := time.Now()
	resp, body = postJSON(t, s, "/v1/embed", req)
	warm := time.Since(warmStart)
	if resp.StatusCode != 200 {
		t.Fatalf("warm embed status = %d", resp.StatusCode)
	}
	if cached, _ := body["cached"].(bool); !cached {
		t.Fatal("warm embed not served from cache")
	}
	if got := mCacheHits.Value() - hitsBefore; got < 1 {
		t.Error("xse_server_cache_hits_total did not increase")
	}
	if warm*10 > cold {
		t.Errorf("warm/cold latency = %s/%s, want >=10x speedup", warm, cold)
	}
}

// TestChaosConcurrentIdenticalEmbeds: concurrent identical requests
// single-flight the expensive build — the search runs once, everyone
// gets the artifact.
func TestChaosConcurrentIdenticalEmbeds(t *testing.T) {
	plan := guard.NewFaultPlan(guard.FaultSpec{
		Stage: "server.embed.search", Mode: guard.FaultModeLatency, Latency: 200 * time.Millisecond,
	})
	restore := guard.SetFaultPlan(plan)
	defer restore()
	// The pool must fit every request: joiners hold their admission
	// slot while they wait on the leader's build.
	s := testServer(t, Config{MaxInFlight: 16, QueueWait: 10 * time.Second})
	body := mustBody(t, EmbedRequest{schemaPair: classPair(), Att: "uniform", Seed: 3, Restarts: 60})

	const n = 6
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post("http://"+s.Addr()+"/v1/embed", "application/json", strings.NewReader(body))
			if err == nil {
				codes[i] = resp.StatusCode
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != 200 {
			t.Errorf("request %d: status %d, want 200", i, c)
		}
	}
	if hits := plan.Hits("server.embed.search"); hits != 1 {
		t.Errorf("search stage ran %d times for %d identical requests, want 1 (single-flight)", hits, n)
	}
}
