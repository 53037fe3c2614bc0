package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
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
	// exists; on recursive targets it is complete up to the path-length
	// bound (see maxPathLen).
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
	// MaxSteps bounds backtracking steps per attempt (default 100000;
	// Exact unlimited).
	MaxSteps int
	// LocalOptions bounds the per-production local mappings enumerated
	// by IndepSet (default 16).
	LocalOptions int
	// Explain enables the per-restart explainability ledger: every
	// restart records its heuristic, seed, steps, placement depth,
	// enumeration frontier peak and a rejection breakdown by constraint
	// class into Result.Ledger (bounded by maxLedger), and — when the
	// context carries an obs.Emitter — emits a search.restart event.
	// Off by default: the disabled path costs one nil check per hook.
	Explain bool
}

// Fixed search bounds. Path lengths are bounded by the target size (at
// least 4; see maxPathLen), which is complete for nonrecursive targets
// and covers one cycle unfolding otherwise.
const (
	// maxCandidates bounds the candidate paths of one (from, to,
	// flavor) query; Exact's bound is wide enough to be complete on the
	// schemas it is run on.
	maxCandidates      = 24
	maxCandidatesExact = 512
	// maxExpansions bounds the BFS expansions of one (from, flavor)
	// tree, and so of every query it answers.
	maxExpansions      = 4096
	maxExpansionsExact = 1 << 17
	// maxPin bounds the pinned star positions tried on AND paths.
	maxPin = 2
	// maxLedger bounds Result.Ledger; the earliest restarts are kept,
	// and the aggregate Result.Rejections always covers every restart.
	maxLedger = 64
)

// maxPathLen bounds enumerated path lengths on tgt.
func maxPathLen(tgt *dtd.DTD) int {
	return max(4, tgt.Size())
}

func (o Options) withDefaults() Options {
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 20
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
	// BFS enumerations across the search; queries served from the
	// candidate memo do not re-count.
	//
	// The cache-effectiveness counters that used to live here
	// (path-query and localPaths hits/misses) are now registry metrics
	// — xse_search_path_cache_*, xse_search_localpaths_* in the
	// process registry — so the -v summaries and /metrics scrapes
	// read one source of truth.
	PathsEnumerated int
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
	// Ledger holds per-restart explainability records when
	// Options.Explain is set (bounded by maxLedger, earliest restarts
	// first); nil otherwise.
	Ledger []RestartRecord `json:"ledger,omitempty"`
	// Rejections aggregates rejection counts by constraint class across
	// every restart (never truncated with the ledger); all zero unless
	// Options.Explain is set.
	Rejections Rejections `json:"rejections"`
}

// Process-registry instruments for the search, flushed once per
// FindCtx from the plain ints the hot loops count in.
var (
	mFound      = obs.Default().CounterL("xse_search_total", "Embedding searches by outcome.", "outcome", "found")
	mNotFound   = obs.Default().CounterL("xse_search_total", "Embedding searches by outcome.", "outcome", "notfound")
	mCanceled   = obs.Default().CounterL("xse_search_total", "Embedding searches by outcome.", "outcome", "canceled")
	mRestarts   = obs.Default().Counter("xse_search_restarts_total", "Search restarts consumed.")
	mSteps      = obs.Default().Counter("xse_search_steps_total", "Backtracking steps across all restarts.")
	mEnumerated = obs.Default().Counter("xse_search_paths_enumerated_total",
		"Candidate target paths produced by real BFS enumerations.")
	mExpansions = obs.Default().Counter("xse_search_bfs_expansions_total",
		"Arena-BFS states expanded during candidate-path enumeration.")
	mPrefixRejects = obs.Default().Counter("xse_search_prefix_rejections_total",
		"Candidate pairs rejected by the prefix-freeness (or OR-divergence) check.")
	mPathHits    = obs.Default().Counter("xse_search_path_cache_hits_total", "Path-candidate queries answered from the search-scoped cache.")
	mPathMisses  = obs.Default().Counter("xse_search_path_cache_misses_total", "Path-candidate queries computed by a BFS enumeration.")
	mLocalHits   = obs.Default().Counter("xse_search_localpaths_hits_total", "localPaths selections answered from the search-scoped memo.")
	mLocalMisses = obs.Default().Counter("xse_search_localpaths_misses_total",
		"localPaths selections computed by backtracking over candidates.")

	stFind = obs.NewStage("search.find",
		obs.Default().Histogram("xse_search_seconds", "Wall-clock embedding-search latency.", obs.LatencyBuckets),
		"search_ms")
	stRestart = obs.NewStage("search.restart", nil, "")
)

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
	var ft obs.Timer
	s.ctx, ft = stFind.Begin(ctx)
	if sp := ft.Span(); sp != nil {
		sp.Attr("heuristic", opts.Heuristic.String())
		sp.AttrInt("seed", opts.Seed)
	}
	res := s.run()
	// The counters are flushed to the registry in one pass here so the
	// hot loops only ever touch plain ints.
	res.PathsEnumerated = s.enum.enumerated
	mRestarts.Add(uint64(res.Restarts))
	mSteps.Add(uint64(res.Steps))
	mEnumerated.Add(uint64(res.PathsEnumerated))
	mExpansions.Add(uint64(s.enum.expansions))
	mPrefixRejects.Add(uint64(s.enum.rejects))
	mPathHits.Add(uint64(s.enum.hits))
	mPathMisses.Add(uint64(s.enum.misses))
	mLocalHits.Add(uint64(s.localHits))
	mLocalMisses.Add(uint64(s.localMisses))
	if sp := ft.Span(); sp != nil {
		sp.AttrInt("restarts", int64(res.Restarts))
		sp.AttrInt("steps", int64(res.Steps))
	}
	res.Elapsed = ft.End()
	if res.Embedding != nil {
		// A win that finished as the context ended is still a win.
		if err := res.Embedding.Validate(att); err != nil {
			return nil, fmt.Errorf("search: internal error: found embedding fails validation: %w", err)
		}
		res.Quality = res.Embedding.Quality(att)
		mFound.Inc()
		return res, nil
	}
	if s.stopped || ctx.Err() != nil {
		res.Exhausted = false // an aborted search proves nothing
		mCanceled.Inc()
		return res, ctxError(ctx.Err())
	}
	mNotFound.Inc()
	return res, nil
}

// newSearcher builds the searcher of one FindCtx call (opts already
// defaulted, att non-nil). The candidate-path, localPaths and
// viability memos it holds span every restart of the search.
func newSearcher(ctx context.Context, src, tgt *dtd.DTD, att *embedding.SimMatrix, opts Options) *searcher {
	cands, expand := maxCandidates, maxExpansions
	if opts.Heuristic == Exact {
		cands, expand = maxCandidatesExact, maxExpansionsExact
	}
	s := &searcher{
		ctx:   ctx,
		src:   src,
		tgt:   tgt,
		att:   att,
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
		enum:  newEnumerator(tgt, maxPathLen(tgt), cands, expand, maxPin),
		local: make(map[string]localResult),
	}
	s.enum.stop = s.canceled
	ix := newSchemaIndex(src, s.enum.tab)
	candidateTable(src, tgt, att, ix)
	s.via = newViability(ix)
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
	// steps counts the current restart's backtracking steps.
	steps int

	// local memoizes localPaths across restarts, keyed by (a, λ(a),
	// λ(children)). keyBuf is reused so lookups are allocation-free;
	// localHits/localMisses count its lookups.
	local                  map[string]localResult
	keyBuf                 []byte
	localHits, localMisses int
	// via holds the λ-candidate table and memoizes viability verdicts
	// and reach sets (viable.go) across restarts.
	via *viability

	// stopped latches the first observed cancellation; checkN
	// amortizes the ctx polls in hot loops.
	stopped bool
	checkN  uint

	// Explainability state (Options.Explain; see ledger.go). rec
	// accumulates the current restart's counters and is nil when
	// explain is off, so every hot-path hook is one nil check.
	// localFail caches the failure class of nil localPaths memo entries
	// so replayed failures count toward the right rejection class;
	// rejectsMark snapshots enum.rejects at restart boundaries; em and
	// reqID feed the search.restart event stream (both resolved once
	// per FindCtx).
	rec         *attemptRec
	localFail   map[string]uint8
	rejectsMark int
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

// run is the restart loop every heuristic shares. Random and
// QualityOrdered run a backtracking attempt per restart, IndepSet an
// assembly; Exact is the zero-restart case, one attempt with unlimited
// steps. A restart that finds an embedding settles the search, and so
// does one that exhausts the candidate space without being canceled —
// restarts cannot help then.
func (s *searcher) run() *Result {
	res := &Result{}
	restarts := s.opts.MaxRestarts
	if s.opts.Heuristic == Exact {
		restarts = 0
	}
	for r := 0; r <= restarts && !s.ctxDone(); r++ {
		res.Restarts = r
		s.steps = 0
		_, rt := stRestart.Begin(s.ctx)
		rt.Span().AttrInt("restart", int64(r))
		var emb *embedding.Embedding
		exhausted := false
		if s.opts.Heuristic == IndepSet {
			emb = s.assembleIndepSet()
		} else {
			emb, exhausted = s.attempt(s.opts.Heuristic == Random)
		}
		rt.Span().AttrInt("steps", int64(s.steps))
		s.finishRestart(res, r, emb != nil, exhausted, rt.End())
		res.Steps += s.steps
		if emb != nil {
			res.Embedding = emb
			return res
		}
		if exhausted && !s.stopped {
			res.Exhausted = true
			return res
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
// it. The lists are read-only, shared by all restarts.
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
