package search

import (
	"sync"

	"repro/internal/dtd"
)

// sfCache is a search-scoped memo table with per-key single-flight.
// It has two modes, fixed at construction:
//
//   - sequential (parallel=false): a plain map, no locks — the cache is
//     owned by one goroutine (the sequential search loop, which already
//     shares it across restarts).
//   - parallel (parallel=true): a sync.Map of single-flight entries, so
//     two workers never duplicate the computation for the same key; the
//     second worker blocks until the first publishes its result.
//
// A computation reports whether it ran to completion; aborted results
// (a canceled search giving up mid-BFS) are returned to the caller but
// never cached, so a cache entry is always a complete, deterministic
// answer. The cache keeps no counters of its own: get reports hit/miss
// to the caller, which accumulates per-goroutine statistics without
// atomic traffic on the hot path.
type sfCache[K comparable, V any] struct {
	seq map[K]V  // sequential mode; nil in parallel mode
	par sync.Map // parallel mode: K -> *sfEntry[V]
}

type sfEntry[V any] struct {
	ready chan struct{} // closed when v/ok are published
	v     V
	ok    bool // false: computation aborted, entry withdrawn
}

func newSFCache[K comparable, V any](parallel bool) *sfCache[K, V] {
	c := &sfCache[K, V]{}
	if !parallel {
		c.seq = make(map[K]V)
	}
	return c
}

// get returns the cached value for key and whether it was a hit,
// computing and caching the value on a miss. compute returns the value
// and whether it ran to completion; incomplete values are passed
// through uncached.
func (c *sfCache[K, V]) get(key K, compute func() (V, bool)) (V, bool) {
	if c.seq != nil {
		if v, ok := c.seq[key]; ok {
			return v, true
		}
		v, complete := compute()
		if complete {
			c.seq[key] = v
		}
		return v, false
	}
	for {
		if e, ok := c.par.Load(key); ok {
			ent := e.(*sfEntry[V])
			<-ent.ready
			if ent.ok {
				return ent.v, true
			}
			// The leader aborted (search canceled); compute uncached —
			// this caller is about to observe the same cancellation.
			v, _ := compute()
			return v, false
		}
		ent := &sfEntry[V]{ready: make(chan struct{})}
		if _, loaded := c.par.LoadOrStore(key, ent); loaded {
			continue // lost the publish race; wait on the winner
		}
		v, complete := compute()
		ent.v, ent.ok = v, complete
		if !complete {
			c.par.Delete(key)
		}
		close(ent.ready)
		return v, false
	}
}

// searchCache holds the path-candidate memo shared by every enumerator
// and every restart (and, in parallel mode, every worker) of one
// FindCtx call, keyed by (from, to, flavor) BFS query, and the target
// table the enumerators read. The localPaths memo is deliberately NOT
// here: it is per-searcher (see searcher.localPathsFor) — a pure
// function recomputes identically on every goroutine, and a shared
// concurrent map costs more in key boxing and hashing than the
// duplicated backtracking it saves.
type searchCache struct {
	paths *sfCache[enumKey, []candidate]

	tabOnce sync.Once
	tab     *targetTable
}

// targets returns the search's numbered target table, building it on
// first use.
func (c *searchCache) targets(tgt *dtd.DTD, maxPin int) *targetTable {
	c.tabOnce.Do(func() { c.tab = newTargetTable(tgt, maxPin) })
	return c.tab
}

func newSearchCache(parallel bool) *searchCache {
	return &searchCache{
		paths: newSFCache[enumKey, []candidate](parallel),
	}
}
