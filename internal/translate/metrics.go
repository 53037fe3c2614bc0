package translate

import "repro/internal/obs"

// Package-level instruments on the process registry: translation is a
// library service used by every CLI, so its counters live in
// obs.Default() and show up in any -v summary, /metrics scrape or
// -trace-out dump without per-call wiring.
var (
	mTranslates = obs.Default().Counter("xse_translate_total",
		"Completed query translations (cache misses that ran Tr).")
	mANFASize = obs.Default().Histogram("xse_translate_anfa_size",
		"Size (states+transitions) of translated automata after useless-state removal.",
		obs.SizeBuckets)
	mCacheHits = obs.Default().Counter("xse_translate_cache_hits_total",
		"Translation cache lookups served from a completed or in-flight entry.")
	mCacheMisses = obs.Default().Counter("xse_translate_cache_misses_total",
		"Translation cache lookups that ran the translation.")
	mCacheWaits = obs.Default().Counter("xse_translate_cache_waits_total",
		"Cache hits that blocked on another caller's in-flight translation (single-flight joins).")

	stTranslate = obs.NewStage("translate.query", obs.Default().Histogram("xse_translate_seconds",
		"Latency of one uncached query translation.", obs.LatencyBuckets), "translate_ms")
)
