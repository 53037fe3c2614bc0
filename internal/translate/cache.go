package translate

import (
	"context"

	"repro/internal/anfa"
	"repro/internal/embedding"
	"repro/internal/memo"
	"repro/internal/xpath"
)

// DefaultCacheSize is the translation cache's capacity. Query
// workloads are heavily skewed (a handful of application queries over
// one embedding), so a small cache captures nearly all repeats.
const DefaultCacheSize = 128

// cacheKey identifies one translation of the cache's embedding: the
// query by its canonical X_R syntax, and the options.
type cacheKey struct {
	q    string
	opts Options
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats = memo.Stats

// Cache is a concurrent LRU memo for query translation across one
// embedding: it maps a source query to its translated ANFA, with
// per-key single-flight so concurrent batch workers asking for the
// same translation run it once (see internal/memo for the rules).
// Cached automata are shared — anfa evaluation is safe for concurrent
// use on a shared Automaton. The embedding must not be changed
// (SetPath, MapType) while the cache is in use.
//
// The zero value is not usable; construct with NewCache.
type Cache struct {
	emb *embedding.Embedding
	m   *memo.Cache[cacheKey, *anfa.Automaton]
}

// NewCache validates emb and returns a cache of its translations
// holding at most DefaultCacheSize entries, evicting
// least-recently-used entries beyond that.
func NewCache(emb *embedding.Embedding) (*Cache, error) {
	if err := emb.Validate(nil); err != nil {
		return nil, err
	}
	return &Cache{emb: emb, m: memo.New[cacheKey, *anfa.Automaton]("translate: cache", DefaultCacheSize,
		memo.Counters{Hits: mCacheHits, Misses: mCacheMisses, Waits: mCacheWaits})}, nil
}

// Get returns Tr(q), translating on a miss and memoizing the result.
// Concurrent callers with the same key share one translation
// (single-flight). Cancellation of ctx surfaces as a
// *guard.CancelError; canceled or failed translations are never
// cached, so transient errors do not poison the key.
func (c *Cache) Get(ctx context.Context, q xpath.Expr) (*anfa.Automaton, error) {
	return c.GetOpt(ctx, q, Options{})
}

// GetOpt is Get under explicit translation options, which are part of
// the cache key: the optimized and unoptimized (differential
// baseline) translations of one query are distinct artifacts.
func (c *Cache) GetOpt(ctx context.Context, q xpath.Expr, opts Options) (*anfa.Automaton, error) {
	auto, _, err := c.m.Get(ctx, cacheKey{q: xpath.String(q), opts: opts}, func() (*anfa.Automaton, error) {
		// A fresh Translator per run: a Translator is
		// single-use-at-a-time, and two distinct keys may translate
		// concurrently. NewCache validated the embedding.
		t := &Translator{emb: c.emb, opts: opts}
		return t.TranslateCtx(ctx, q)
	})
	return auto, err
}

// Stats returns a point-in-time snapshot of the counters. Hits count
// calls served from the cache (including joins on an in-flight
// translation); misses count calls that ran the translation.
func (c *Cache) Stats() CacheStats { return c.m.Stats() }
