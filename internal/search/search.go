package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/obs"
	"repro/internal/xpath"
)

// Typed cancellation errors returned by FindCtx. They wrap the
// corresponding context errors, so errors.Is(err, context.Canceled)
// and errors.Is(err, search.ErrCanceled) both hold.
var (
	// ErrDeadline reports that the context deadline expired before the
	// search concluded. The accompanying Result carries the partial
	// progress made (restarts completed, steps taken, paths enumerated,
	// and any embedding already found).
	ErrDeadline = fmt.Errorf("search: deadline exceeded: %w", context.DeadlineExceeded)
	// ErrCanceled reports that the context was canceled mid-search.
	ErrCanceled = fmt.Errorf("search: canceled: %w", context.Canceled)
)

// ctxError maps a context error to the package's typed errors.
func ctxError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadline
	}
	return ErrCanceled
}

// Heuristic selects the embedding-search strategy.
type Heuristic int

const (
	// Random assembles local embeddings visiting candidate target types
	// in random order, with random restarts (the VLDB'05 Random
	// approach).
	Random Heuristic = iota
	// QualityOrdered visits candidates in decreasing att order, so
	// higher-quality mappings are tried first.
	QualityOrdered
	// IndepSet enumerates local mappings per production and assembles a
	// consistent set greedily by weight, a stand-in for the
	// maximum-independent-set reduction of the paper (the quadratic-
	// over-a-sphere heuristic of Busygin et al. is closed source).
	IndepSet
	// Exact searches the full candidate space with backtracking. It is
	// complete relative to the path-enumeration bounds: on nonrecursive
	// targets with the default bounds, failure proves no embedding
	// exists; on recursive targets it is complete up to MaxPathLen.
	Exact
)

// String names the heuristic.
func (h Heuristic) String() string {
	switch h {
	case Random:
		return "Random"
	case QualityOrdered:
		return "QualityOrdered"
	case IndepSet:
		return "IndepSet"
	case Exact:
		return "Exact"
	}
	return fmt.Sprintf("Heuristic(%d)", int(h))
}

// heuristicNames is the one table of heuristic names accepted on
// command lines and in requests, in lower case. Each String value,
// lowered, is among them.
var heuristicNames = map[string]Heuristic{
	"random":         Random,
	"quality":        QualityOrdered,
	"qualityordered": QualityOrdered,
	"indepset":       IndepSet,
	"exact":          Exact,
}

// ParseHeuristic returns the heuristic named, case-insensitively, by
// random, quality (or qualityordered), indepset or exact.
func ParseHeuristic(name string) (Heuristic, error) {
	if h, ok := heuristicNames[strings.ToLower(name)]; ok {
		return h, nil
	}
	return 0, fmt.Errorf("search: unknown heuristic %q", name)
}

// Options configures Find.
type Options struct {
	// Heuristic selects the strategy (default Random).
	Heuristic Heuristic
	// Seed drives the pseudo-random choices; runs are deterministic per
	// seed.
	Seed int64
	// MaxRestarts bounds random restarts (default 20; Exact ignores it).
	MaxRestarts int
	// MaxPathLen bounds enumerated path lengths (default: target size,
	// which is complete for nonrecursive targets and covers one cycle
	// unfolding otherwise).
	MaxPathLen int
	// MaxCandidates bounds candidate paths per (source edge, λ choice)
	// (default 24; Exact default 512).
	MaxCandidates int
	// MaxExpansions bounds BFS work per path query (default 4096; Exact
	// default 1<<17).
	MaxExpansions int
	// MaxPin bounds pinned star positions on AND paths (default 2).
	MaxPin int
	// MaxSteps bounds backtracking steps per attempt (default 100000;
	// Exact unlimited).
	MaxSteps int
	// LocalOptions bounds the per-production local mappings enumerated
	// by IndepSet (default 16).
	LocalOptions int
	// Parallel runs Random/QualityOrdered restarts on this many worker
	// goroutines (default 1, fully deterministic). With workers > 1 the
	// first successful restart wins, so which valid embedding is
	// returned may vary between runs; validity never does.
	Parallel int
	// Obs selects the metrics registry search counters and latency
	// histograms are recorded into: nil means obs.Default() (the
	// process registry exported by the CLIs), obs.Nop() disables
	// instrumentation. Counters are accumulated in plain per-goroutine
	// ints and flushed once per search, so the choice does not affect
	// the hot paths.
	Obs *obs.Registry
	// Explain enables the per-restart explainability ledger: every
	// restart records its heuristic, seed, steps, placement depth,
	// enumeration frontier peak and a rejection breakdown by constraint
	// class into Result.Ledger (bounded by MaxLedger), and — when the
	// context carries an obs.Emitter — emits a search.restart event.
	// Off by default: the disabled path costs one nil check per hook.
	Explain bool
	// MaxLedger bounds Result.Ledger entries (default 64; the earliest
	// restarts are kept — the aggregate Result.Rejections always covers
	// every restart).
	MaxLedger int
}

func (o Options) withDefaults() Options {
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 20
	}
	if o.MaxCandidates == 0 {
		if o.Heuristic == Exact {
			o.MaxCandidates = 512
		} else {
			o.MaxCandidates = 24
		}
	}
	if o.MaxExpansions == 0 {
		if o.Heuristic == Exact {
			o.MaxExpansions = 1 << 17
		} else {
			o.MaxExpansions = 4096
		}
	}
	if o.MaxPin == 0 {
		o.MaxPin = 2
	}
	if o.MaxSteps == 0 {
		if o.Heuristic == Exact {
			o.MaxSteps = int(^uint(0) >> 1)
		} else {
			o.MaxSteps = 100000
		}
	}
	if o.LocalOptions == 0 {
		o.LocalOptions = 16
	}
	if o.MaxLedger == 0 {
		o.MaxLedger = 64
	}
	return o
}

// Result reports the outcome of a search.
type Result struct {
	// Embedding is the found embedding, nil when none was found.
	Embedding *embedding.Embedding
	// Quality is qual(σ, att) of the found embedding.
	Quality float64
	// Restarts counts restarts consumed.
	Restarts int
	// Steps counts backtracking steps across all restarts.
	Steps int
	// Exhausted is true when the search space (within bounds) was fully
	// explored without success — for Exact on nonrecursive targets this
	// proves no embedding exists within the bounds.
	Exhausted bool
	// PathsEnumerated counts candidate target paths produced by real
	// BFS enumerations across the search (all workers); queries served
	// from the shared candidate cache do not re-count.
	//
	// The cache-effectiveness counters that used to live here
	// (path-query and localPaths hits/misses) are now registry metrics
	// — xse_search_path_cache_*, xse_search_localpaths_* in the
	// Options.Obs registry — so the -v summaries and /metrics scrapes
	// read one source of truth.
	PathsEnumerated int
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
	// Ledger holds per-restart explainability records when
	// Options.Explain is set (bounded by Options.MaxLedger, earliest
	// restarts first); nil otherwise.
	Ledger []RestartRecord `json:"ledger,omitempty"`
	// Rejections aggregates rejection counts by constraint class across
	// every restart (never truncated with the ledger); all zero unless
	// Options.Explain is set.
	Rejections Rejections `json:"rejections"`
}

// metrics is the search package's registry slice, resolved once per
// FindCtx. All fields are nil under obs.Nop(), making every flush a
// no-op.
type metrics struct {
	found, notFound, canceled *obs.Counter
	restarts, steps           *obs.Counter
	enumerated, expansions    *obs.Counter
	prefixRejects             *obs.Counter
	pathHits, pathMisses      *obs.Counter
	localHits, localMisses    *obs.Counter
	latency                   *obs.Histogram
}

func newMetrics(r *obs.Registry) metrics {
	r = obs.OrDefault(r)
	return metrics{
		found:    r.CounterL("xse_search_total", "Embedding searches by outcome.", "outcome", "found"),
		notFound: r.CounterL("xse_search_total", "Embedding searches by outcome.", "outcome", "notfound"),
		canceled: r.CounterL("xse_search_total", "Embedding searches by outcome.", "outcome", "canceled"),
		restarts: r.Counter("xse_search_restarts_total", "Search restarts consumed."),
		steps:    r.Counter("xse_search_steps_total", "Backtracking steps across all restarts and workers."),
		enumerated: r.Counter("xse_search_paths_enumerated_total",
			"Candidate target paths produced by real BFS enumerations."),
		expansions: r.Counter("xse_search_bfs_expansions_total",
			"Arena-BFS states expanded during candidate-path enumeration."),
		prefixRejects: r.Counter("xse_search_prefix_rejections_total",
			"Candidate pairs rejected by the prefix-freeness (or OR-divergence) check."),
		pathHits:   r.Counter("xse_search_path_cache_hits_total", "Path-candidate queries answered from the search-scoped cache."),
		pathMisses: r.Counter("xse_search_path_cache_misses_total", "Path-candidate queries computed by a BFS enumeration."),
		localHits:  r.Counter("xse_search_localpaths_hits_total", "localPaths selections answered from the per-worker memo."),
		localMisses: r.Counter("xse_search_localpaths_misses_total",
			"localPaths selections computed by backtracking over candidates."),
		latency: r.Histogram("xse_search_seconds", "Wall-clock embedding-search latency.", obs.LatencyBuckets),
	}
}

// Find searches for a valid schema embedding σ : src → tgt w.r.t. att.
// A nil att behaves as the unrestricted matrix (all pairs similar).
// Every returned embedding has passed the independent validity checker.
// Find never gives up on its own beyond the Options bounds; use
// FindCtx to impose a deadline or cancellation.
func Find(src, tgt *dtd.DTD, att *embedding.SimMatrix, opts Options) (*Result, error) {
	return FindCtx(context.Background(), src, tgt, att, opts)
}

// FindCtx is Find under a context: the search checks ctx at loop
// boundaries (restarts, backtracking steps, path-enumeration
// expansions) and stops early when it is done, returning a typed
// ErrDeadline or ErrCanceled together with a non-nil Result holding
// the partial progress made so far (restarts completed, steps taken,
// paths enumerated, best embedding found). An already-expired context
// returns immediately without touching the schemas.
func FindCtx(ctx context.Context, src, tgt *dtd.DTD, att *embedding.SimMatrix, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return &Result{}, ctxError(err)
	}
	opts = opts.withDefaults()
	if err := src.Check(); err != nil {
		return nil, err
	}
	if err := tgt.Check(); err != nil {
		return nil, err
	}
	if att == nil {
		att = embedding.UniformSim(src, tgt)
	}
	s := newSearcher(ctx, src, tgt, att, opts)
	s.tr = obs.TracerFrom(ctx)
	if s.tr != nil {
		_, s.span = obs.StartSpan(ctx, "search.find")
		s.span.Attr("heuristic", opts.Heuristic.String())
		s.span.AttrInt("seed", opts.Seed)
	}
	m := newMetrics(opts.Obs)
	start := time.Now()
	res := s.run()
	res.Elapsed = time.Since(start)
	// Parallel workers aggregated their counters into the root
	// searcher already; the root's own counters cover the sequential
	// modes. Everything is flushed to the registry in one pass here so
	// the hot loops only ever touch plain per-goroutine ints.
	res.PathsEnumerated += s.enum.enumerated
	m.restarts.Add(uint64(res.Restarts))
	m.steps.Add(uint64(res.Steps))
	m.enumerated.Add(uint64(res.PathsEnumerated))
	m.expansions.Add(uint64(s.enum.expansions))
	m.prefixRejects.Add(uint64(s.enum.rejects))
	m.pathHits.Add(uint64(s.enum.hits))
	m.pathMisses.Add(uint64(s.enum.misses))
	m.localHits.Add(uint64(s.localHits))
	m.localMisses.Add(uint64(s.localMisses))
	m.latency.Observe(res.Elapsed.Seconds())
	if s.span != nil {
		s.span.AttrInt("restarts", int64(res.Restarts))
		s.span.AttrInt("steps", int64(res.Steps))
		s.span.End()
	}
	if res.Embedding != nil {
		// A win that raced a late cancellation is still a win.
		if err := res.Embedding.Validate(att); err != nil {
			return nil, fmt.Errorf("search: internal error: found embedding fails validation: %w", err)
		}
		res.Quality = res.Embedding.Quality(att)
		m.found.Inc()
		return res, nil
	}
	if s.stopped || ctx.Err() != nil {
		res.Exhausted = false // an aborted search proves nothing
		m.canceled.Inc()
		return res, ctxError(ctx.Err())
	}
	m.notFound.Inc()
	return res, nil
}

// newSearcher builds the root searcher of one FindCtx call (opts
// already defaulted, att non-nil).
func newSearcher(ctx context.Context, src, tgt *dtd.DTD, att *embedding.SimMatrix, opts Options) *searcher {
	maxLen := opts.MaxPathLen
	if maxLen == 0 {
		maxLen = tgt.Size()
		if maxLen < 4 {
			maxLen = 4
		}
	}
	// The candidate cache is shared by every restart and, in parallel
	// mode, every worker of this search; the localPaths and viability
	// memos are per-searcher (per-goroutine), shared across restarts.
	parallel := opts.Parallel > 1 &&
		(opts.Heuristic == Random || opts.Heuristic == QualityOrdered)
	s := &searcher{
		ctx:   ctx,
		src:   src,
		tgt:   tgt,
		att:   att,
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
		cache: newSearchCache(parallel),
		local: make(map[string]localResult),
		seed:  opts.Seed,
	}
	ix := newSchemaIndex(src, s.cache.targets(tgt, opts.MaxPin))
	candidateTable(src, tgt, att, ix)
	s.via = newViability(ix)
	s.enum = newEnumerator(tgt, maxLen, opts.MaxCandidates, opts.MaxExpansions, opts.MaxPin, s.cache)
	s.enum.stop = s.canceled
	if opts.Explain {
		s.rec = &attemptRec{}
		s.localFail = make(map[string]uint8)
		s.em = obs.EmitterFrom(ctx)
		s.reqID = obs.RequestIDFrom(ctx)
	}
	return s
}

type searcher struct {
	ctx      context.Context
	src, tgt *dtd.DTD
	att      *embedding.SimMatrix
	opts     Options
	rng      *rand.Rand
	enum     *enumerator
	steps    int

	// cache is the search-scoped memo shared across restarts and
	// workers.
	cache *searchCache
	// local memoizes localPaths across this searcher's restarts, keyed
	// by (a, λ(a), λ(children)). It is per-goroutine by design: keyBuf
	// is reused so lookups are allocation-free, and a plain map avoids
	// the key-boxing and hashing overhead a shared concurrent map would
	// pay on every probe. localHits/localMisses count its lookups
	// (plain ints: parallel workers aggregate via outcomes).
	local                  map[string]localResult
	keyBuf                 []byte
	localHits, localMisses int
	// via holds the λ-candidate table, shared read-only, and memoizes
	// viability verdicts and reach sets (viable.go) across this
	// searcher's restarts; per-goroutine like local.
	via *viability

	// stopped latches the first observed cancellation; checkN
	// amortizes the ctx polls in hot loops.
	stopped bool
	checkN  uint

	// tr and span carry the optional tracer, resolved from the context
	// once per FindCtx so restart loops pay a nil check, not a context
	// walk. Both are nil when tracing is off.
	tr   *obs.Tracer
	span *obs.Span

	// Explainability state (Options.Explain; see ledger.go). rec
	// accumulates the current restart's counters and is nil when
	// explain is off, so every hot-path hook is one nil check.
	// localFail caches the failure class of nil localPaths memo entries
	// so replayed failures count toward the right rejection class;
	// rejectsMark snapshots enum.rejects at restart boundaries; seed is
	// the value that reproduces this searcher's rng; em and reqID feed
	// the search.restart event stream (both resolved once per FindCtx).
	rec         *attemptRec
	localFail   map[string]uint8
	rejectsMark int
	seed        int64
	em          *obs.Emitter
	reqID       string
}

// ctxDone polls the context directly; used at coarse boundaries
// (restarts).
func (s *searcher) ctxDone() bool {
	if s.stopped {
		return true
	}
	select {
	case <-s.ctx.Done():
		s.stopped = true
		return true
	default:
		return false
	}
}

// canceled is the amortized check for hot loops: it polls the context
// once every 256 calls.
func (s *searcher) canceled() bool {
	if s.stopped {
		return true
	}
	s.checkN++
	if s.checkN&255 != 0 {
		return false
	}
	return s.ctxDone()
}

func (s *searcher) run() *Result {
	res := &Result{}
	switch s.opts.Heuristic {
	case IndepSet:
		for r := 0; r <= s.opts.MaxRestarts; r++ {
			if s.ctxDone() {
				break
			}
			res.Restarts = r
			sp := s.tr.StartSpan("search.restart", s.span)
			sp.AttrInt("restart", int64(r))
			stepsBefore := s.steps
			var t0 time.Time
			if s.rec != nil {
				t0 = time.Now()
			}
			emb := s.assembleIndepSet()
			sp.End()
			if s.rec != nil {
				s.finishRestart(res, r, 0, emb != nil, false, time.Since(t0), stepsBefore)
			}
			if emb != nil {
				res.Embedding = emb
				res.Steps = s.steps
				return res
			}
		}
		res.Steps = s.steps
		return res
	case Exact:
		s.steps = 0
		sp := s.tr.StartSpan("search.attempt", s.span)
		var t0 time.Time
		if s.rec != nil {
			t0 = time.Now()
		}
		emb, exhausted := s.attempt(false)
		sp.AttrInt("steps", int64(s.steps))
		sp.End()
		if s.rec != nil {
			s.finishRestart(res, 0, 0, emb != nil, exhausted, time.Since(t0), 0)
		}
		res.Embedding = emb
		res.Steps = s.steps
		res.Exhausted = exhausted && emb == nil && !s.stopped
		return res
	default:
		if s.opts.Parallel > 1 {
			return s.runParallel()
		}
		for r := 0; r <= s.opts.MaxRestarts; r++ {
			if s.ctxDone() {
				break
			}
			res.Restarts = r
			s.steps = 0
			sp := s.tr.StartSpan("search.restart", s.span)
			sp.AttrInt("restart", int64(r))
			var t0 time.Time
			if s.rec != nil {
				t0 = time.Now()
			}
			emb, exhausted := s.attempt(s.opts.Heuristic == Random)
			sp.AttrInt("steps", int64(s.steps))
			sp.End()
			if s.rec != nil {
				s.finishRestart(res, r, 0, emb != nil, exhausted, time.Since(t0), 0)
			}
			res.Steps += s.steps
			if emb != nil {
				res.Embedding = emb
				return res
			}
			if exhausted && !s.stopped {
				// The candidate space was fully explored; restarts
				// cannot help.
				res.Exhausted = true
				return res
			}
		}
		return res
	}
}

// latchSettled records a settling restart outcome — a win (embedding
// found) or a proof of impossibility (exhausted without cancellation) —
// on the shared early-exit flag. It only ever stores true: a losing
// outcome racing a prior win must never unlatch the flag (the latch
// used to be written `done.Store(emb != nil)`, which let a later merely
// exhausted restart reset it and resurrect idle workers).
func latchSettled(done *atomic.Bool, win, exhausted, stopped bool) {
	if win || (exhausted && !stopped) {
		done.Store(true)
	}
}

// runParallel distributes restarts over worker goroutines. Each worker
// gets its own searcher and enumerator shell — including a private
// localPaths memo spanning its restarts — but all of them share the
// search-scoped candidate cache (with per-key single-flight), so
// identical (from, to, flavor) BFS queries run once per search instead
// of once per restart per worker. The first success wins; a proof of
// impossibility also settles the search.
func (s *searcher) runParallel() *Result {
	workers := s.opts.Parallel
	// All restart indices are queued upfront so no feeder goroutine can
	// block after an early win.
	restarts := make(chan int, s.opts.MaxRestarts+1)
	for r := 0; r <= s.opts.MaxRestarts; r++ {
		restarts <- r
	}
	close(restarts)
	type outcome struct {
		emb        *embedding.Embedding
		steps      int
		restart    int
		exhausted  bool
		canceled   bool
		enumerated int
		expansions int
		rejects    int
		pathHits   int
		pathMisses int
		localHits  int
		localMiss  int
		// rec is the restart's ledger record (Options.Explain only);
		// the collector folds records into the result and emits them in
		// restart order.
		rec *RestartRecord
	}
	results := make(chan outcome, s.opts.MaxRestarts+1)
	var wg sync.WaitGroup
	var done atomic.Bool

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker renders on its own tracer lane, restarts
			// nesting under the worker span.
			lane := s.tr.NewLane("search.worker")
			lane.AttrInt("worker", int64(w))
			defer lane.End()
			// The localPaths and viability memos, the BFS trees and the
			// key buffer span this worker's restarts; the searcher shell
			// is rebuilt per restart for its per-restart rng and
			// counters. Under Explain the failure-class cache spans the
			// restarts with the memo, while the attemptRec is reset per
			// record by makeRecord.
			memo := make(map[string]localResult)
			via := newViability(s.via.ix)
			trees := &treeSet{}
			var keyBuf []byte
			var rec *attemptRec
			var localFail map[string]uint8
			if s.opts.Explain {
				rec = &attemptRec{}
				localFail = make(map[string]uint8)
			}
			for r := range restarts {
				if done.Load() {
					return
				}
				seed := s.opts.Seed + int64(r)*2654435761
				local := &searcher{
					ctx:       s.ctx,
					src:       s.src,
					tgt:       s.tgt,
					att:       s.att,
					opts:      s.opts,
					rng:       rand.New(rand.NewSource(seed)),
					cache:     s.cache,
					local:     memo,
					via:       via,
					keyBuf:    keyBuf,
					tr:        s.tr,
					span:      lane,
					rec:       rec,
					localFail: localFail,
					seed:      seed,
				}
				local.enum = newEnumerator(s.tgt, s.enum.maxLen, s.enum.maxCands, s.enum.maxExpand, s.enum.maxPin, s.cache)
				local.enum.stop = local.canceled
				local.enum.trees = trees
				if local.ctxDone() {
					results <- outcome{restart: r, canceled: true}
					return
				}
				sp := s.tr.StartSpan("search.restart", lane)
				sp.AttrInt("restart", int64(r))
				var t0 time.Time
				if rec != nil {
					t0 = time.Now()
				}
				emb, exhausted := local.attempt(s.opts.Heuristic == Random)
				sp.AttrInt("steps", int64(local.steps))
				sp.End()
				keyBuf = local.keyBuf
				o := outcome{
					steps:      local.steps,
					restart:    r,
					canceled:   local.stopped,
					enumerated: local.enum.enumerated,
					expansions: local.enum.expansions,
					rejects:    local.enum.rejects,
					pathHits:   local.enum.hits,
					pathMisses: local.enum.misses,
					localHits:  local.localHits,
					localMiss:  local.localMisses,
				}
				if rec != nil {
					lr := local.makeRecord(r, w, emb != nil, exhausted, time.Since(t0), 0)
					o.rec = &lr
				}
				latchSettled(&done, emb != nil, exhausted, local.stopped)
				if emb != nil || (exhausted && !local.stopped) {
					o.emb = emb
					o.exhausted = exhausted
					results <- o
					return
				}
				results <- o
				if local.stopped {
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	res := &Result{}
	var recs []RestartRecord
	for o := range results {
		res.Steps += o.steps
		// Worker counters fold into the root searcher's plain ints;
		// FindCtx flushes the totals to the registry once.
		s.enum.enumerated += o.enumerated
		s.enum.expansions += o.expansions
		s.enum.rejects += o.rejects
		s.enum.hits += o.pathHits
		s.enum.misses += o.pathMisses
		s.localHits += o.localHits
		s.localMisses += o.localMiss
		if o.restart > res.Restarts {
			res.Restarts = o.restart
		}
		if o.emb != nil && res.Embedding == nil {
			res.Embedding = o.emb
		}
		if o.exhausted && o.emb == nil {
			res.Exhausted = true
		}
		if o.canceled {
			s.stopped = true
		}
		if o.rec != nil {
			res.Rejections.add(o.rec.Rejections)
			recs = append(recs, *o.rec)
		}
	}
	if len(recs) > 0 {
		// Workers finish out of order; the ledger reads in restart order
		// and keeps the earliest MaxLedger records (the aggregate
		// Rejections above already covers them all).
		sort.Slice(recs, func(i, j int) bool { return recs[i].Restart < recs[j].Restart })
		if len(recs) > s.opts.MaxLedger {
			recs = recs[:s.opts.MaxLedger]
		}
		res.Ledger = recs
		for _, rec := range recs {
			s.emitRestart(rec)
		}
	}
	return res
}

// order returns the source types in BFS order from the root, so a
// type's λ is fixed before its production is processed.
func (s *searcher) order() []string {
	seen := map[string]bool{s.src.Root: true}
	queue := []string{s.src.Root}
	var out []string
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		out = append(out, a)
		for _, c := range s.src.Prods[a].Children {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return out
}

// candidateTable precomputes the filtered, att-ordered λ-candidate list
// per source type (ix.choices) in one pass over the similarity matrix,
// so the backtracking never rescans and re-sorts the matrix at search
// time. The root's only candidate is the target root, when att admits
// it. The lists are shared read-only by all restarts and workers.
func candidateTable(src, tgt *dtd.DTD, att *embedding.SimMatrix, ix *schemaIndex) {
	table := att.AllCandidates()
	total := 0
	for _, cands := range table {
		total += len(cands)
	}
	// One backing array holds every list.
	all := make([]choice, 0, total)
	for a, cands := range table {
		i, ok := ix.src[a]
		if !ok || a == src.Root {
			continue
		}
		// Keep only actual target types.
		start := len(all)
		for _, c := range cands {
			if t, ok := ix.tgt.index[c]; ok {
				all = append(all, choice{name: c, t: t})
			}
		}
		ix.choices[i] = all[start:len(all):len(all)]
	}
	if att.Get(src.Root, tgt.Root) > 0 {
		ix.choices[ix.src[src.Root]] = []choice{{name: tgt.Root, t: ix.tgt.index[tgt.Root]}}
	}
}

// localPathsFor memoizes localPaths across this searcher's restarts:
// the selection is a pure function of (a, λ(a), λ(a's children)) given
// fixed enumeration bounds (see the comment on attempt). Selections
// aborted by cancellation are not cached. Every production kind goes
// through the memo: even a single-edge one, whose path query is
// already cached, would otherwise build a fresh result map per call.
// The key is built in a reused buffer so a memo hit allocates nothing
// (the map lookup through string(buf) does not copy).
func (s *searcher) localPathsFor(a string, lam map[string]string) localResult {
	prod := s.src.Prods[a]
	buf := s.keyBuf[:0]
	buf = append(buf, a...)
	buf = append(buf, 0)
	buf = append(buf, lam[a]...)
	for _, c := range prod.Children {
		buf = append(buf, 0)
		buf = append(buf, lam[c]...)
	}
	s.keyBuf = buf
	if local, ok := s.local[string(buf)]; ok {
		s.localHits++
		// A replayed failure still counts toward its rejection class;
		// the class was cached beside the nil entry on the first miss.
		if s.rec != nil && local == nil {
			s.rec.countFail(s.localFail[string(buf)])
		}
		return local
	}
	local := localPaths(s.enum, s.src, a, lam, s.rec)
	s.localMisses++
	// s.stopped latches when the amortized cancellation poll fired
	// inside the enumeration or selection; such results may be
	// truncated and must not be cached.
	if !s.stopped {
		s.local[string(buf)] = local
		if s.rec != nil && local == nil {
			s.localFail[string(buf)] = s.rec.lastFail
		}
	}
	return local
}

// attempt runs one constructive backtracking pass. Only λ choices are
// backtracked globally: for a fixed λ of a production's participants,
// local prefix-free paths either exist or not, and which particular
// selection is taken cannot affect any other production (the
// prefix-free condition is per production, §5.1) — so local paths are
// computed once per λ combination. Productions of newly assigned
// children are solved depth first, surfacing contradictions close to
// the λ choices that caused them. It returns the found embedding, and
// whether the space was exhausted (as opposed to hitting the step
// budget).
func (s *searcher) attempt(shuffle bool) (*embedding.Embedding, bool) {
	if s.att.Get(s.src.Root, s.tgt.Root) <= 0 {
		if s.rec != nil {
			s.rec.rej.LambdaEmpty++
		}
		return nil, true
	}
	if s.rec != nil {
		s.rec.noteDepth(1) // the root's λ is fixed
	}
	if !s.viableNamed(s.src.Root, s.tgt.Root) {
		if s.rec != nil {
			s.rec.rej.PathEmpty++
		}
		return nil, !s.stopped
	}
	lam := map[string]string{s.src.Root: s.tgt.Root}
	paths := map[embedding.EdgeRef]xpath.Path{}
	solved := map[string]bool{}
	budget := s.opts.MaxSteps

	type cont func() (bool, bool) // (success, exhausted)

	var solveProd func(a string, k cont) (bool, bool)
	solveProd = func(a string, k cont) (bool, bool) {
		prod := s.src.Prods[a]
		from, fl := lam[a], edgeFlavor(prod.Kind)
		// Distinct children lacking a λ, in production order. An edge to
		// a child whose λ is already fixed must have a candidate path,
		// or no assignment of the free children can help.
		var free []string
		seen := map[string]bool{}
		for _, c := range prod.Children {
			if seen[c] {
				continue
			}
			seen[c] = true
			if b, fixed := lam[c]; fixed {
				if !s.hasPath(from, b, fl) {
					if s.rec != nil {
						s.rec.rej.PathEmpty++
					}
					return false, true
				}
				continue
			}
			free = append(free, c)
		}
		fi := s.via.ix.tgt.index[from]

		// withPaths: λ is complete for this production; find one local
		// path selection, then solve the children's productions.
		withPaths := func() (bool, bool) {
			local := s.localPathsFor(a, lam)
			if local == nil {
				return false, true
			}
			for ref, p := range local {
				paths[ref] = p
			}
			var kids []string
			seenK := map[string]bool{}
			for _, c := range prod.Children {
				if !seenK[c] {
					seenK[c] = true
					kids = append(kids, c)
				}
			}
			var next func(idx int) (bool, bool)
			next = func(idx int) (bool, bool) {
				if idx == len(kids) {
					return k()
				}
				c := kids[idx]
				if solved[c] {
					return next(idx + 1)
				}
				solved[c] = true
				done, e := solveProd(c, func() (bool, bool) { return next(idx + 1) })
				if !done {
					delete(solved, c)
				}
				return done, e
			}
			done, e := next(0)
			if !done {
				for ref := range local {
					delete(paths, ref)
				}
			}
			return done, e
		}

		var assign func(j int) (bool, bool)
		assign = func(j int) (bool, bool) {
			if s.steps >= budget || s.canceled() {
				return false, false
			}
			s.steps++
			if j == len(free) {
				return withPaths()
			}
			c := free[j]
			exh := true
			ci, list := s.choices(fi, c, fl, shuffle)
			for _, b := range list {
				if !s.try(from, ci, b, fl) {
					continue
				}
				lam[c] = b.name
				if s.rec != nil {
					s.rec.noteDepth(len(lam))
				}
				done, e := assign(j + 1)
				if done {
					return true, e
				}
				if !e {
					exh = false
				}
				delete(lam, c)
			}
			return false, exh
		}
		return assign(0)
	}

	// Solve the root; types unreachable from the root (possible only in
	// inconsistent sources) are solved afterwards in declaration order.
	var leftovers func() (bool, bool)
	leftovers = func() (bool, bool) {
		for _, a := range s.src.Types {
			if solved[a] || a == s.src.Root {
				continue
			}
			if _, fixed := lam[a]; !fixed {
				exh := true
				for _, b := range s.viableCandidates(a, shuffle) {
					lam[a] = b.name
					solved[a] = true
					done, e := solveProd(a, leftovers)
					if done {
						return true, e
					}
					if !e {
						exh = false
					}
					delete(solved, a)
					delete(lam, a)
				}
				return false, exh
			}
			solved[a] = true
			done, e := solveProd(a, leftovers)
			if !done {
				delete(solved, a)
			}
			return done, e
		}
		return true, true
	}

	solved[s.src.Root] = true
	ok, exhausted := solveProd(s.src.Root, leftovers)
	if !ok {
		return nil, exhausted
	}
	emb := embedding.New(s.src, s.tgt)
	for a, b := range lam {
		emb.MapType(a, b)
	}
	for ref, p := range paths {
		emb.Paths[ref] = p
	}
	return emb, true
}

// edgeRefs lists the edges of a's production in production order,
// including the str pseudo-edge.
func edgeRefs(src *dtd.DTD, a string) []embedding.EdgeRef {
	prod := src.Prods[a]
	if prod.Kind == dtd.KindStr {
		return []embedding.EdgeRef{embedding.Ref(a, embedding.StrChild)}
	}
	var refs []embedding.EdgeRef
	occ := map[string]int{}
	for _, c := range prod.Children {
		occ[c]++
		refs = append(refs, embedding.EdgeRef{Parent: a, Child: c, Occ: occ[c]})
	}
	return refs
}
