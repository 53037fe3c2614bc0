package search_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dtd"
	"repro/internal/search"
	"repro/internal/workload"
)

// bigPair returns a search problem far too large to solve in a few
// milliseconds: two independent synthetic schemas under the
// unrestricted matrix with the exhaustive heuristic.
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

// TestFindCtxShortDeadline: a few-millisecond deadline on a large
// workload stops the search mid-flight with ErrDeadline and partial
// progress statistics instead of running to completion.
func TestFindCtxShortDeadline(t *testing.T) {
	src, tgt := bigPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := search.FindCtx(ctx, src, tgt, nil, search.Options{Heuristic: search.Exact})
	elapsed := time.Since(start)
	if err == nil {
		// The pair is sized so that exhaustive search cannot finish in
		// 5ms; a nil error means cancellation never propagated.
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

// TestFindCtxRandomCancel: cancellation mid-run stops a Random search
// between or inside its restarts, with ErrCanceled and partial stats.
func TestFindCtxRandomCancel(t *testing.T) {
	src, tgt := bigPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	res, err := search.FindCtx(ctx, src, tgt, nil, search.Options{
		Heuristic:   search.Random,
		Seed:        3,
		MaxRestarts: 1 << 20,
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
