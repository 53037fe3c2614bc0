package search_test

import (
	"context"
	"errors"
	"log/slog"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dtd"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/workload"
)

// bigPair returns two independent synthetic schemas (120 and 150
// types) whose search set-up alone takes milliseconds: a context that
// is already done must stop FindCtx before any of it.
func bigPair(t *testing.T) (src, tgt *dtd.DTD) {
	t.Helper()
	src = workload.MustSyntheticDTD(rand.New(rand.NewSource(41)), 120)
	tgt = workload.MustSyntheticDTD(rand.New(rand.NewSource(97)), 150)
	return src, tgt
}

// TestFindCtxAlreadyCanceled: a context canceled before the call
// returns immediately with ErrCanceled and an empty (but non-nil)
// result, without touching the search problem.
func TestFindCtxAlreadyCanceled(t *testing.T) {
	src, tgt := bigPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := search.FindCtx(ctx, src, tgt, nil, search.Options{Heuristic: search.Exact})
	elapsed := time.Since(start)
	if !errors.Is(err, search.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v should also match context.Canceled", err)
	}
	if res == nil {
		t.Fatal("result is nil; want empty partial stats")
	}
	if res.Embedding != nil || res.Exhausted {
		t.Errorf("canceled-before-start result claims progress: %+v", res)
	}
	// The acceptance bound is 10ms; allow slack for loaded CI machines.
	if elapsed > 100*time.Millisecond {
		t.Errorf("already-canceled FindCtx took %s", elapsed)
	}
}

// TestFindCtxExpiredDeadline: an already-expired deadline behaves like
// a pre-canceled context but yields the deadline error.
func TestFindCtxExpiredDeadline(t *testing.T) {
	src, tgt := bigPair(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := search.FindCtx(ctx, src, tgt, nil, search.Options{Heuristic: search.Exact})
	if !errors.Is(err, search.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v should also match context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("result is nil; want empty partial stats")
	}
}

// slowExactPair returns a search problem Exact cannot settle in
// seconds: a 30-type synthetic schema and a noisy copy of it, on which
// Exact runs for over 3 s without finding or exhausting.
func slowExactPair(t *testing.T) (src, tgt *dtd.DTD) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	src = workload.MustSyntheticDTD(r, 30)
	return src, workload.Noise(src, workload.NoiseLevel(0.3), r).DTD
}

// TestFindCtxShortDeadline: a few-millisecond deadline on a long
// search stops it mid-flight with ErrDeadline and partial progress
// statistics instead of running to completion.
func TestFindCtxShortDeadline(t *testing.T) {
	src, tgt := slowExactPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := search.FindCtx(ctx, src, tgt, nil, search.Options{Heuristic: search.Exact})
	elapsed := time.Since(start)
	if err == nil {
		// Exact cannot settle this pair for seconds; a nil error
		// means cancellation never propagated.
		t.Fatalf("search completed under a 5ms deadline (elapsed %s, result %+v)", elapsed, res)
	}
	if !errors.Is(err, search.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if res == nil {
		t.Fatal("result is nil; want partial stats")
	}
	if res.Exhausted {
		t.Error("interrupted search must not report Exhausted")
	}
	// Cancellation is polled at loop boundaries; the search must wind
	// down promptly once the deadline fires.
	if elapsed > 5*time.Second {
		t.Errorf("search took %s to honor a 5ms deadline", elapsed)
	}
}

// cancelOnRestart is a slog handler that cancels a context when a
// search.restart event reaches it.
type cancelOnRestart struct{ cancel context.CancelFunc }

func (h cancelOnRestart) Enabled(context.Context, slog.Level) bool { return true }
func (h cancelOnRestart) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h cancelOnRestart) WithGroup(string) slog.Handler            { return h }
func (h cancelOnRestart) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "search.restart" {
		h.cancel()
	}
	return nil
}

// TestFindCtxRandomCancel: cancellation mid-run stops a Random search
// between its restarts, with ErrCanceled and partial stats. The cancel
// fires from the search.restart event of restart 0, a point every run
// reaches: under a 3-step budget each Random restart on the Figure 1
// pair ends on the budget, neither finding an embedding nor exhausting
// the candidates, so without the cancel the search would go on for
// 2^20 restarts.
func TestFindCtxRandomCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = obs.WithEmitter(ctx, obs.NewEmitter(slog.New(cancelOnRestart{cancel}), nil))
	res, err := search.FindCtx(ctx, workload.ClassDTD(), workload.SchoolDTD(), nil, search.Options{
		Heuristic:   search.Random,
		Seed:        3,
		MaxRestarts: 1 << 20,
		MaxSteps:    3,
		Explain:     true,
	})
	if err == nil {
		t.Fatalf("Random search outran cancellation (result %+v)", res)
	}
	if !errors.Is(err, search.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("result is nil; want partial stats")
	}
	if res.Exhausted {
		t.Error("canceled Random search must not report Exhausted")
	}
	if res.Steps == 0 {
		t.Error("Steps = 0: the cancel did not land mid-run")
	}
	if len(res.Ledger) != 1 || res.Ledger[0].Outcome != search.OutcomeStepBudget {
		t.Errorf("ledger = %+v, want exactly restart 0, ended on its step budget", res.Ledger)
	}
}

// TestFindCtxBackgroundMatchesFind: with a background context, FindCtx
// is Find — the Figure 1 embedding is still found.
func TestFindCtxBackgroundMatchesFind(t *testing.T) {
	res, err := search.FindCtx(context.Background(),
		workload.ClassDTD(), workload.SchoolDTD(), nil,
		search.Options{Heuristic: search.Random, Seed: 1, MaxRestarts: 60})
	if err != nil {
		t.Fatalf("FindCtx: %v", err)
	}
	if res.Embedding == nil {
		t.Fatal("no embedding found with background context")
	}
	if err := res.Embedding.Validate(nil); err != nil {
		t.Errorf("embedding invalid: %v", err)
	}
}
