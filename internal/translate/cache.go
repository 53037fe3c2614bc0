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

// cacheKey identifies one translation: the embedding by the content
// fingerprint of its (source DTD, target DTD, σ) triple and the query
// by its canonical X_R syntax. Content keying (rather than the pointer
// identity used before the daemon existed) means structurally
// identical embeddings share entries across requests in a long-lived
// process, and a cached entry never pins an Embedding alive.
type cacheKey struct {
	fp   string
	q    string
	opts Options
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats = memo.Stats

// Cache is a concurrent LRU memo for query translation: it maps
// (embedding, source query) to the translated ANFA, with per-key
// single-flight so concurrent batch workers asking for the same
// translation run it once (see internal/memo for the rules). Cached
// automata are shared — anfa evaluation is safe for concurrent use on
// a shared Automaton.
//
// The zero value is not usable; construct with NewCache.
type Cache struct {
	m *memo.Cache[cacheKey, *anfa.Automaton]
}

// NewCache returns a cache holding at most DefaultCacheSize
// translations, evicting least-recently-used entries beyond that.
func NewCache() *Cache {
	return &Cache{m: memo.New[cacheKey, *anfa.Automaton]("translate: cache", DefaultCacheSize,
		memo.Counters{Hits: mCacheHits, Misses: mCacheMisses, Waits: mCacheWaits})}
}

// Get returns Tr(q) for the embedding, translating on a miss and
// memoizing the result. Concurrent callers with the same key share one
// translation (single-flight). Cancellation of ctx surfaces as a
// *guard.CancelError; canceled or failed translations are never
// cached, so transient errors do not poison the key.
func (c *Cache) Get(ctx context.Context, emb *embedding.Embedding, q xpath.Expr) (*anfa.Automaton, error) {
	return c.GetOpt(ctx, emb, q, Options{})
}

// GetOpt is Get under explicit translation options, which are part of
// the cache key: the optimized and unoptimized (differential
// baseline) translations of one query are distinct artifacts.
func (c *Cache) GetOpt(ctx context.Context, emb *embedding.Embedding, q xpath.Expr, opts Options) (*anfa.Automaton, error) {
	key := cacheKey{fp: emb.Fingerprint(), q: xpath.String(q), opts: opts}
	auto, _, err := c.m.Get(ctx, key, func() (*anfa.Automaton, error) {
		// A fresh Translator per run: a Translator is
		// single-use-at-a-time, and two distinct keys of the same
		// embedding may translate concurrently.
		t, err := NewWithOptions(emb, opts)
		if err != nil {
			return nil, err
		}
		return t.TranslateCtx(ctx, q)
	})
	return auto, err
}

// Stats returns a point-in-time snapshot of the counters. Hits count
// calls served from the cache (including joins on an in-flight
// translation); misses count calls that ran the translation.
func (c *Cache) Stats() CacheStats { return c.m.Stats() }
