package translate_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/embedding"
	"repro/internal/guard"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xpath"
)

func mustCache(t *testing.T, emb *embedding.Embedding) *translate.Cache {
	t.Helper()
	c, err := translate.NewCache(emb)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheHitMiss: a repeated query is translated once; the second
// call is a hit and returns the same automaton pointer.
func TestCacheHitMiss(t *testing.T) {
	emb := workload.ClassEmbedding()
	c := mustCache(t, emb)
	q := xpath.MustParse(`class/cno/text()`)

	a1, err := c.Get(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Get(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("cache returned distinct automata for the same key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}

	// A syntactically identical but distinct Expr value keys the same.
	a3, err := c.Get(context.Background(), xpath.MustParse(`class/cno/text()`))
	if err != nil {
		t.Fatal(err)
	}
	if a3 != a1 {
		t.Error("re-parsed identical query missed the cache")
	}
}

// TestCacheConcurrent: many goroutines over a small query set; run
// under -race this exercises the single-flight paths. Every returned
// automaton must evaluate correctly.
func TestCacheConcurrent(t *testing.T) {
	emb := workload.ClassEmbedding()
	c := mustCache(t, emb)
	src := classDoc(t)
	res, err := emb.Apply(src)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`class/cno/text()`,
		`class/title/text()`,
		`class[cno/text() = "CS331"]`,
		`(class/type/regular/prereq/class)*/cno`,
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qs := queries[(g+i)%len(queries)]
				auto, err := c.Get(context.Background(), xpath.MustParse(qs))
				if err != nil {
					errs <- fmt.Errorf("%s: %w", qs, err)
					return
				}
				if auto.Eval(res.Tree.Root) == nil && qs == `class/cno/text()` {
					errs <- fmt.Errorf("%s: cached automaton selected nothing", qs)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Misses > uint64(len(queries)) {
		t.Errorf("misses = %d, want <= %d (single-flight must collapse duplicates)", st.Misses, len(queries))
	}
	if st.Hits+st.Misses != 16*20 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 16*20)
	}
}

// TestCacheErrorNotCached: a failing translation is not memoized and
// does not occupy an entry.
func TestCacheErrorNotCached(t *testing.T) {
	emb := workload.ClassEmbedding()
	c := mustCache(t, emb)
	// position() on a non-label step is rejected by the translator.
	q := xpath.MustParse(`(class | class/type)[position() = 1]`)
	for i := 0; i < 2; i++ {
		if _, err := c.Get(context.Background(), q); err == nil {
			t.Fatal("expected a translation error")
		}
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Errorf("entries = %d, want 0 (errors must not be cached)", st.Entries)
	}
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (each failing call re-translates)", st.Misses)
	}
}

// TestCacheCanceled: a canceled context surfaces as *guard.CancelError
// and leaves no poisoned entry behind.
func TestCacheCanceled(t *testing.T) {
	emb := workload.ClassEmbedding()
	c := mustCache(t, emb)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Get(ctx, xpath.MustParse(`class/cno`))
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	var ce *guard.CancelError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want *guard.CancelError wrapping context.Canceled", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("entries = %d, want 0 after canceled translation", st.Entries)
	}
	// The key is usable afterwards.
	if _, err := c.Get(context.Background(), xpath.MustParse(`class/cno`)); err != nil {
		t.Fatal(err)
	}
}

// TestNewCacheRejectsInvalid: the cache validates its embedding once,
// up front, instead of failing every translation.
func TestNewCacheRejectsInvalid(t *testing.T) {
	emb := workload.ClassEmbedding()
	emb.MapType("title", "semester")
	if c, err := translate.NewCache(emb); err == nil || c != nil {
		t.Fatalf("NewCache = %v, %v; want an invalid-embedding error", c, err)
	}
}
