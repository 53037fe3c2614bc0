package corpus

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/anfa"
	"repro/internal/embedding"
	"repro/internal/match"
	"repro/internal/search"
	"repro/internal/translate"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// ErrUnknownPair reports a RunConfig.Pairs entry naming no checked-in
// corpus pair — a caller input problem, not a pipeline failure.
var ErrUnknownPair = errors.New("no such corpus pair")

// RunConfig steers a corpus run. The zero value selects usable
// defaults covering every pair and heuristic.
type RunConfig struct {
	// Pairs restricts the run to the named pairs; empty means all.
	Pairs []string
	// Heuristics lists the search strategies compared; default
	// Random, QualityOrdered, IndepSet.
	Heuristics []search.Heuristic
	// Seed drives instance generation, random query generation and
	// the search's pseudo-random choices. Default 1.
	Seed int64
	// Docs is the number of instance documents migrated per found
	// embedding. Default 3.
	Docs int
	// DocNodes is the approximate node count per generated document.
	// Default 400.
	DocNodes int
	// RandomQueries supplements each pair's curated queries with this
	// many generated translatable X_R queries. Default 4.
	RandomQueries int
	// SearchTimeout bounds each individual heuristic search; zero
	// means no per-search deadline beyond ctx.
	SearchTimeout time.Duration
	// MaxRestarts bounds restarts per search. The corpus default (200)
	// is deliberately above the library default: realistic pairs are
	// where the Random baseline needs its restart budget.
	MaxRestarts int
	// LocalOptions bounds IndepSet's per-production sampling; corpus
	// default 64.
	LocalOptions int
	// SimThreshold is the lexical similarity floor for the att matrix
	// (see match.Lexical). Default 0 keeps every scored pair.
	SimThreshold float64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c RunConfig) withDefaults() RunConfig {
	if len(c.Heuristics) == 0 {
		c.Heuristics = []search.Heuristic{search.Random, search.QualityOrdered, search.IndepSet}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Docs == 0 {
		c.Docs = 3
	}
	if c.DocNodes == 0 {
		c.DocNodes = 400
	}
	if c.RandomQueries == 0 {
		c.RandomQueries = 4
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 200
	}
	if c.LocalOptions == 0 {
		c.LocalOptions = 64
	}
	return c
}

// Row is the outcome of one (pair, heuristic) pipeline run: the
// machine-readable unit of the heuristic shoot-out.
type Row struct {
	Pair      string `json:"pair"`
	Heuristic string `json:"heuristic"`

	// Search outcome.
	Found           bool    `json:"found"`
	Quality         float64 `json:"quality"`
	SearchMS        float64 `json:"search_ms"`
	Restarts        int     `json:"restarts"`
	Steps           int     `json:"steps"`
	PathsEnumerated int     `json:"paths_enumerated"`

	// Data-plane outcome (zero unless Found).
	Docs       int     `json:"docs"`
	DocNodes   int     `json:"doc_nodes"`
	MigrateOK  int     `json:"migrate_ok"`
	MigrateMS  float64 `json:"migrate_ms"`
	Queries    int     `json:"queries"`
	Translated int     `json:"translated"`

	// ANFA sizes across the translated queries (states plus
	// transitions, after optimization).
	ANFAStatesTotal int `json:"anfa_states_total"`
	ANFAStatesMax   int `json:"anfa_states_max"`
	// Optimizer effect: summed automaton sizes entering and leaving
	// the schema-aware ANFA optimizer.
	ANFAStatesBefore int `json:"anfa_states_before"`
	ANFAStatesAfter  int `json:"anfa_states_after"`

	// Violations: a non-zero count fails the run.
	MigrateFailures        int `json:"migrate_failures"`
	PreservationMismatches int `json:"preservation_mismatches"`
	// StreamMismatches counts documents whose streaming migration, σd
	// or σd⁻¹ of σd(T), failed or produced output that is not
	// byte-identical to the tree path's serialization.
	StreamMismatches int `json:"stream_mismatches"`

	// Err records a search error (deadline, cancellation); empty
	// otherwise. A not-found outcome is not an error.
	Err string `json:"err,omitempty"`

	// Rejections breaks the search's dead ends down by constraint
	// class (the explainability ledger's aggregate): evidence for why
	// a heuristic failed or how hard it had to work to succeed.
	Rejections *search.Rejections `json:"rejections,omitempty"`
}

// PairResult groups the per-heuristic rows of one schema pair.
type PairResult struct {
	Pair        string `json:"pair"`
	SourceTypes int    `json:"source_types"`
	TargetTypes int    `json:"target_types"`
	Recursive   bool   `json:"recursive"`
	Rows        []Row  `json:"rows"`
}

// FoundBy lists the heuristics that found an embedding.
func (p *PairResult) FoundBy() []string {
	var out []string
	for _, r := range p.Rows {
		if r.Found {
			out = append(out, r.Heuristic)
		}
	}
	return out
}

// Report is the full corpus run outcome.
type Report struct {
	Seed     int64        `json:"seed"`
	Docs     int          `json:"docs"`
	DocNodes int          `json:"doc_nodes"`
	Pairs    []PairResult `json:"pairs"`
}

// Violations counts pipeline-correctness failures across the report:
// migration failures, non-conforming migrated documents,
// query-preservation mismatches and stream-vs-tree divergences. Zero
// is the healthy state.
func (r *Report) Violations() int {
	n := 0
	for _, p := range r.Pairs {
		for _, row := range p.Rows {
			n += row.MigrateFailures + row.PreservationMismatches + row.StreamMismatches
		}
	}
	return n
}

// Uncovered lists pairs for which no heuristic found an embedding.
func (r *Report) Uncovered() []string {
	var out []string
	for _, p := range r.Pairs {
		if len(p.FoundBy()) == 0 {
			out = append(out, p.Pair)
		}
	}
	return out
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the report as an aligned text table, one row per
// (pair, heuristic).
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-14s %-6s %8s %10s %9s %7s %6s %8s %6s %7s %7s\n",
		"pair", "heuristic", "found", "quality", "search_ms", "restarts", "docs", "ok", "queries", "anfa", "anfa_b", "anfa_a")
	for _, p := range r.Pairs {
		for _, row := range p.Rows {
			fmt.Fprintf(&b, "%-8s %-14s %-6v %8.2f %10.2f %9d %7d %6d %8d %6d %7d %7d\n",
				row.Pair, row.Heuristic, row.Found, row.Quality, row.SearchMS,
				row.Restarts, row.Docs, row.MigrateOK, row.Queries, row.ANFAStatesMax,
				row.ANFAStatesBefore, row.ANFAStatesAfter)
		}
	}
	return b.String()
}

// RejectionTable renders the per-heuristic rejection breakdown: for
// every (pair, heuristic) cell, how many candidate placements each
// constraint class killed during the search. Reading it across a pair
// shows *why* a heuristic failed (all its dead ends hit the same
// class) rather than just that it did — the evidence the heuristic
// shoot-out needs (ROADMAP item 4).
func (r *Report) RejectionTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-14s %-6s %12s %10s %11s %12s %9s %6s\n",
		"pair", "heuristic", "found", "lambda_empty", "path_empty", "prefix_free", "local_select", "conflict", "total")
	for _, p := range r.Pairs {
		for _, row := range p.Rows {
			rej := row.Rejections
			if rej == nil {
				rej = &search.Rejections{}
			}
			fmt.Fprintf(&b, "%-8s %-14s %-6v %12d %10d %11d %12d %9d %6d\n",
				row.Pair, row.Heuristic, row.Found,
				rej.LambdaEmpty, rej.PathEmpty, rej.PrefixFree, rej.LocalSelect, rej.Conflict, rej.Total())
		}
	}
	return b.String()
}

// Run drives the full pipeline over the corpus: for every selected
// pair and heuristic it searches for an embedding (scored against a
// lexical similarity matrix over the real tag names), then — when one
// is found — migrates generated instance documents, validates them
// against the target schema, cross-checks the streaming engine's
// output against the tree path byte-for-byte, translates the pair's
// queries and checks query preservation (Q(T) = idM(Tr(Q)(σd(T))))
// on every document.
func Run(ctx context.Context, cfg RunConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	pairs, err := Pairs()
	if err != nil {
		return nil, err
	}
	if len(cfg.Pairs) > 0 {
		keep := map[string]bool{}
		for _, n := range cfg.Pairs {
			keep[n] = true
		}
		var sel []Pair
		for _, p := range pairs {
			if keep[p.Name] {
				sel = append(sel, p)
				delete(keep, p.Name)
			}
		}
		for n := range keep {
			return nil, fmt.Errorf("corpus: %w: %q", ErrUnknownPair, n)
		}
		pairs = sel
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	rep := &Report{Seed: cfg.Seed, Docs: cfg.Docs, DocNodes: cfg.DocNodes}
	for _, p := range pairs {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		pr := PairResult{
			Pair:        p.Name,
			SourceTypes: len(p.Source.Types),
			TargetTypes: len(p.Target.Types),
			Recursive:   p.Source.IsRecursive() || p.Target.IsRecursive(),
		}
		att := match.Lexical(p.Source, p.Target, cfg.SimThreshold)
		queries, queryTexts := pairQueries(p, cfg)
		docs, err := pairDocs(p, cfg)
		if err != nil {
			return rep, err
		}
		for _, h := range cfg.Heuristics {
			row := runPair(ctx, p, h, att, queries, docs, cfg)
			row.Queries = len(queryTexts)
			pr.Rows = append(pr.Rows, row)
			logf("%-8s %-14s found=%v quality=%.2f search=%.1fms ok=%d/%d mismatches=%d stream=%d",
				p.Name, h, row.Found, row.Quality, row.SearchMS, row.MigrateOK, row.Docs, row.PreservationMismatches, row.StreamMismatches)
		}
		rep.Pairs = append(rep.Pairs, pr)
	}
	return rep, ctx.Err()
}

// pairQueries returns the pair's curated queries extended with
// generated translatable ones.
func pairQueries(p Pair, cfg RunConfig) ([]xpath.Expr, []string) {
	queries := append([]xpath.Expr(nil), p.Queries...)
	texts := append([]string(nil), p.QueryTexts...)
	r := rand.New(rand.NewSource(cfg.Seed ^ int64(len(p.Name))<<7))
	for i := 0; i < cfg.RandomQueries; i++ {
		q := xpath.RandomQuery(r, p.Source, xpath.GenOptions{TranslatableOnly: true, MaxDepth: 3})
		queries = append(queries, q)
		texts = append(texts, xpath.String(q))
	}
	return queries, texts
}

// pairDocs generates the pair's instance documents.
func pairDocs(p Pair, cfg RunConfig) ([]*xmltree.Tree, error) {
	docs := make([]*xmltree.Tree, 0, cfg.Docs)
	for i := 0; i < cfg.Docs; i++ {
		doc, err := GenerateSized(p.Source, cfg.Seed+int64(i)*7919, cfg.DocNodes)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", p.Name, err)
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

// searchOptions is the search configuration of one (pair, heuristic)
// cell.
func (c RunConfig) searchOptions(h search.Heuristic) search.Options {
	return search.Options{
		Heuristic:    h,
		Seed:         c.Seed,
		MaxRestarts:  c.MaxRestarts,
		LocalOptions: c.LocalOptions,
		Explain:      true,
	}
}

// runPair executes one (pair, heuristic) cell: search, then the data
// plane when an embedding is found.
func runPair(ctx context.Context, p Pair, h search.Heuristic, att *embedding.SimMatrix,
	queries []xpath.Expr, docs []*xmltree.Tree, cfg RunConfig) Row {
	row := Row{Pair: p.Name, Heuristic: h.String()}
	sctx := ctx
	if cfg.SearchTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, cfg.SearchTimeout)
		defer cancel()
	}
	res, err := search.FindCtx(sctx, p.Source, p.Target, att, cfg.searchOptions(h))
	if err != nil {
		// Deadline and cancellation leave partial stats in res; an
		// invalid schema would have failed Pairs() already.
		row.Err = err.Error()
	}
	if res != nil {
		row.Quality = res.Quality
		row.SearchMS = float64(res.Elapsed) / float64(time.Millisecond)
		row.Restarts = res.Restarts
		row.Steps = res.Steps
		row.PathsEnumerated = res.PathsEnumerated
		row.Found = res.Embedding != nil
		rej := res.Rejections
		row.Rejections = &rej
	}
	if !row.Found {
		return row
	}
	emb := res.Embedding

	// Every valid embedding compiles to a streaming program (reordering
	// productions take the buffered fallback), so a compile failure here
	// is itself a pipeline violation.
	prog, err := emb.CompileStream()
	if err != nil {
		row.Err = fmt.Sprintf("streaming compile: %v", err)
		row.StreamMismatches++
	}
	inv, err := emb.CompileStreamInverse()
	if err != nil {
		row.Err = fmt.Sprintf("streaming inverse compile: %v", err)
		row.StreamMismatches++
	}

	trl, err := translate.New(emb)
	if err != nil {
		row.Err = fmt.Sprintf("translator construction: %v", err)
		return row
	}
	autos := make(map[int]*anfaHandle, len(queries))
	for i, q := range queries {
		auto, err := trl.TranslateCtx(ctx, q)
		if err != nil {
			// Curated and generated queries are translatable by
			// construction; a failure here is a pipeline violation.
			row.PreservationMismatches++
			continue
		}
		row.Translated++
		size := auto.Size()
		row.ANFAStatesTotal += size
		if size > row.ANFAStatesMax {
			row.ANFAStatesMax = size
		}
		opt := trl.LastOptStats()
		row.ANFAStatesBefore += opt.SizeBefore
		row.ANFAStatesAfter += opt.SizeAfter
		autos[i] = &anfaHandle{q: q, auto: auto}
	}

	for _, doc := range docs {
		row.Docs++
		row.DocNodes += doc.Size()
		t0 := time.Now()
		mres, err := emb.ApplyCtx(ctx, doc)
		row.MigrateMS += float64(time.Since(t0)) / float64(time.Millisecond)
		if err != nil {
			row.MigrateFailures++
			continue
		}
		if err := mres.Tree.Validate(p.Target); err != nil {
			row.MigrateFailures++
			continue
		}
		row.MigrateOK++
		// Cross-check the streaming engine against the tree path on the
		// real-schema instance, in both directions: same document,
		// byte-identical output.
		img := mres.Tree.String()
		if prog != nil && !streamMatches(ctx, prog, doc.String(), img) {
			row.StreamMismatches++
		}
		if inv != nil {
			back, ierr := emb.InvertCtx(ctx, mres.Tree)
			if ierr != nil || !streamMatches(ctx, inv, img, back.String()) {
				row.StreamMismatches++
			}
		}
		// Q(T) = idM(Tr(Q)(σd(T))), with the translated automaton
		// optimized and compiled: the data-plane production path.
		for _, h := range autos {
			if mres.Preserves(xpath.Eval(h.q, doc.Root), h.auto.Program().Run(mres.Tree.Root)) != nil {
				row.PreservationMismatches++
			}
		}
	}
	return row
}

// streamMatches runs prog on in and reports whether it succeeds with
// exactly want.
func streamMatches(ctx context.Context, prog *embedding.StreamProgram, in, want string) bool {
	var out strings.Builder
	_, err := prog.Run(ctx, strings.NewReader(in), &out, embedding.StreamOptions{})
	return err == nil && out.String() == want
}

type anfaHandle struct {
	q    xpath.Expr
	auto *anfa.Automaton
}
