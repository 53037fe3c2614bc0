// Package memo is the one memoizing cache of the long-lived
// services: a concurrent LRU bounded by entry count, with per-key
// single-flight builds. The query-translation cache
// (internal/translate) and the daemon's schema-pair artifact cache
// (internal/server) are thin keyed wrappers over it.
//
// The rules every caller relies on:
//
//   - Concurrent Gets of one key run one build; the others join it.
//     Joins count as hits, and as waits when they had to block.
//   - A build that fails — or panics — is withdrawn under the lock
//     before its joiners wake, so a failure is never cached and a
//     joiner of a failed leader retries (becoming the new leader or
//     finding a later success). A panic still propagates to the
//     leader's caller.
//   - Evicting an in-flight entry is safe: its leader completes, its
//     joiners are served, and the withdrawal of a later failure leaves
//     any newer entry under the same key alone.
//   - A completed entry is returned without consulting the caller's
//     ctx; only a blocking wait honours cancellation.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/guard"
	"repro/internal/obs"
)

// errPanicked is the outcome joiners observe when the leader's build
// panicked. It is never returned: joiners retry on any error, and the
// leader itself unwinds with the panic.
var errPanicked = errors.New("memo: build panicked")

// Counters are the registry instruments a Cache counts into, next to
// its own Stats. Nil fields count nothing.
type Counters struct {
	Hits, Misses, Waits *obs.Counter
}

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	Hits    uint64 // Get calls answered from a completed or in-flight entry
	Misses  uint64 // Get calls that ran the build
	Waits   uint64 // hits that blocked on an in-flight build
	Entries int    // resident entries (completed or in flight)
}

// entry is a single-flight slot. The leader that inserted it closes
// ready after publishing val/err; joiners block on ready or their own
// context.
type entry[K comparable, V any] struct {
	key   K
	ready chan struct{}
	val   V
	err   error
}

// Cache memoizes build results by key. Construct with New; the zero
// value is not usable.
type Cache[K comparable, V any] struct {
	name     string
	capacity int
	ctr      Counters

	mu  sync.Mutex
	lru *list.List // front = most recently used; values are *entry[K, V]
	idx map[K]*list.Element

	hits, misses, waits atomic.Uint64
}

// New returns a cache holding at most capacity entries, evicting the
// least recently used beyond that. name prefixes the cancellation
// errors of blocked waits (guard.CheckCtx).
func New[K comparable, V any](name string, capacity int, ctr Counters) *Cache[K, V] {
	return &Cache[K, V]{
		name:     name,
		capacity: capacity,
		ctr:      ctr,
		lru:      list.New(),
		idx:      make(map[K]*list.Element, capacity),
	}
}

// Get returns the value under key, running build on a miss. hit
// reports whether the value came from a completed or in-flight entry
// (the work was shared). Cancellation of ctx while waiting on another
// caller's build surfaces as a *guard.CancelError; build itself sees
// whatever context its closure captured.
func (c *Cache[K, V]) Get(ctx context.Context, key K, build func() (V, error)) (val V, hit bool, err error) {
	for {
		c.mu.Lock()
		el, ok := c.idx[key]
		if !ok {
			ent := &entry[K, V]{key: key, ready: make(chan struct{})}
			el = c.lru.PushFront(ent)
			c.idx[key] = el
			if c.lru.Len() > c.capacity {
				oldest := c.lru.Back()
				c.lru.Remove(oldest)
				delete(c.idx, oldest.Value.(*entry[K, V]).key)
			}
			c.mu.Unlock()
			return c.lead(el, ent, build)
		}
		c.lru.MoveToFront(el)
		ent := el.Value.(*entry[K, V])
		c.mu.Unlock()
		select {
		case <-ent.ready:
		default:
			// Still in flight: a single-flight join, not a plain hit.
			c.waits.Add(1)
			c.ctr.Waits.Inc()
			select {
			case <-ent.ready:
			case <-ctx.Done():
				return val, false, guard.CheckCtx(ctx, c.name)
			}
		}
		if ent.err != nil {
			// The leader failed and withdrew the entry: retry.
			continue
		}
		c.hits.Add(1)
		c.ctr.Hits.Inc()
		return ent.val, true, nil
	}
}

// lead runs the build for a freshly inserted entry. The deferred
// settle runs on return and on panic alike, so a panicking build
// leaves errPanicked in place, is withdrawn and wakes its joiners
// before the panic continues up the leader's stack.
func (c *Cache[K, V]) lead(el *list.Element, ent *entry[K, V], build func() (V, error)) (V, bool, error) {
	c.misses.Add(1)
	c.ctr.Misses.Inc()
	ent.err = errPanicked
	defer c.settle(el, ent)
	ent.val, ent.err = build()
	return ent.val, false, ent.err
}

// settle publishes a finished build: a failure is withdrawn before
// ready closes — unless the entry was evicted (and possibly replaced)
// meanwhile — so a linked, completed entry always carries a value.
func (c *Cache[K, V]) settle(el *list.Element, ent *entry[K, V]) {
	if ent.err != nil {
		c.mu.Lock()
		if cur, ok := c.idx[ent.key]; ok && cur == el {
			c.lru.Remove(el)
			delete(c.idx, ent.key)
		}
		c.mu.Unlock()
	}
	close(ent.ready)
}

// Len reports resident entries (completed or in flight).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a point-in-time snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Waits:   c.waits.Load(),
		Entries: c.Len(),
	}
}
