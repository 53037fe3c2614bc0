package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/corpus"
	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/match"
	"repro/internal/search"
	"repro/internal/workload"
)

// searchCase is one distinct search op: the integrator's path from two
// DTD texts to an embedding.
type searchCase struct {
	name             string
	srcText, tgtText string
	// truth is the ground-truth λ of a noisy copy (nil for corpus
	// pairs, whose att is lexical).
	truth map[string]string
	// amb is the synthetic att's ambiguity; 1 forces λ = truth.
	amb  int
	opts search.Options
	// want is the embedding the gate found and validated (Marshal form),
	// "" when the gate's search found none.
	want string
}

// searchWorkload runs embedding searches: the corpus pairs under
// Random and IndepSet with lexical att, noisy copies of the corpus
// source DTDs under every heuristic, and E3-style synthetic sized
// schemas under Random.
type searchWorkload struct {
	seed  int64
	cases []*searchCase

	mu    sync.Mutex
	stats searchStats
}

// searchStats accumulates traced ops' search results.
type searchStats struct {
	ops, found             int
	restarts, steps, paths float64
}

func newSearchWorkload(seed int64, size sizing) bench {
	w := &searchWorkload{seed: seed}
	r := rand.New(rand.NewSource(seed))
	pairs := corpus.MustPairs()
	searchSeeds, trials, synthSizes := 3, 4, []int{25, 50, 100}
	if size == tinySize {
		searchSeeds, trials, synthSizes = 1, 1, []int{25}
	}
	// Random on the corpus pairs is bounded by restarts and steps only,
	// never by a deadline, so found or not-found is deterministic. The
	// corpus and its search seeds are fixed: whether a Random restart
	// happens to succeed swings an op's cost fivefold, so seed-drawn
	// search seeds would make runs incomparable. The seed varies the
	// generated pairs below.
	for _, p := range pairs {
		for k := 0; k < searchSeeds; k++ {
			s := int64(k + 1)
			w.cases = append(w.cases,
				&searchCase{name: "corpus-random", srcText: p.SourceText, tgtText: p.TargetText,
					opts: search.Options{Heuristic: search.Random, Seed: s, MaxRestarts: 3, MaxSteps: 8000}},
				&searchCase{name: "corpus-indepset", srcText: p.SourceText, tgtText: p.TargetText,
					opts: search.Options{Heuristic: search.IndepSet, Seed: s, MaxRestarts: 4}})
		}
	}
	heuristics := []search.Heuristic{search.Random, search.QualityOrdered, search.IndepSet}
	for _, p := range pairs {
		nc := workload.Noise(p.Source, workload.NoiseLevel(0.25), r)
		for _, h := range heuristics {
			w.cases = append(w.cases, &searchCase{name: "noisy", srcText: p.Source.String(), tgtText: nc.DTD.String(),
				truth: nc.Truth, amb: 1, opts: search.Options{Heuristic: h, Seed: r.Int63n(1 << 30), MaxRestarts: 20}})
		}
	}
	for _, n := range synthSizes {
		for trial := 0; trial < trials; trial++ {
			base := mustSynthetic(r, n)
			nc := workload.Noise(base, workload.NoiseLevel(0.2), r)
			w.cases = append(w.cases, &searchCase{name: "synthetic", srcText: base.String(), tgtText: nc.DTD.String(),
				truth: nc.Truth, amb: 2, opts: search.Options{Heuristic: search.QualityOrdered, Seed: r.Int63n(1 << 30), MaxRestarts: 15}})
		}
	}
	return w
}

// mustSynthetic draws a synthetic schema of about n types, redrawing
// on the generator's occasional inconsistent schema.
func mustSynthetic(r *rand.Rand, n int) *dtd.DTD {
	for {
		d, err := workload.SyntheticDTD(r, n)
		if err == nil {
			return d
		}
	}
}

// setup parses every schema.
func (w *searchWorkload) setup(o *opCtx) error {
	for _, c := range w.cases {
		if _, _, err := parsePair(o, c.srcText, c.tgtText); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return nil
}

func parsePair(o *opCtx, srcText, tgtText string) (src, tgt *dtd.DTD, err error) {
	o.span("dtd.parse", func() { src, err = dtd.Parse(srcText, "") })
	if err != nil {
		return nil, nil, err
	}
	o.span("dtd.parse", func() { tgt, err = dtd.Parse(tgtText, "") })
	return src, tgt, err
}

// att builds the case's similarity matrix: lexical for the corpus
// pairs, synthetic over the known truth elsewhere (seeded per case, so
// every op of a case sees the same matrix).
func (c *searchCase) att(o *opCtx, src, tgt *dtd.DTD) *embedding.SimMatrix {
	var m *embedding.SimMatrix
	o.span("match.att", func() {
		if c.truth == nil {
			m = match.Lexical(src, tgt, 0)
			return
		}
		m = match.Synthetic(src, tgt, c.truth, match.SyntheticOptions{Accuracy: 1, Ambiguity: c.amb},
			rand.New(rand.NewSource(c.opts.Seed)))
	})
	return m
}

// find runs one op of the case.
func (c *searchCase) find(o *opCtx, explain bool) (*search.Result, *embedding.SimMatrix, error) {
	src, tgt, err := parsePair(o, c.srcText, c.tgtText)
	if err != nil {
		return nil, nil, err
	}
	att := c.att(o, src, tgt)
	opts := c.opts
	opts.Explain = explain
	var res *search.Result
	o.span("search.find", func() { res, err = search.FindCtx(context.Background(), src, tgt, att, opts) })
	return res, att, err
}

// gate runs every case once, untimed, and records its embedding: each
// embedding found must pass Validate under its att, and on the noisy
// copies (where att admits only the truth) its λ must equal the ground
// truth. Every pair must provably embed: the noisy and synthetic ones
// by their ground-truth embedding (workload.TruthEmbedding validates
// it), the corpus ones by a QualityOrdered witness, validated.
func (w *searchWorkload) gate() error {
	for i, c := range w.cases {
		name := fmt.Sprintf("search %s #%d", c.name, i)
		res, att, err := c.find(&opCtx{id: -1, root: -1}, false)
		if err != nil {
			return violated(name, "search error: %v", err)
		}
		src, tgt, _ := parsePair(&opCtx{}, c.srcText, c.tgtText)
		if c.truth != nil {
			if _, err := workload.TruthEmbedding(src, &workload.NoisyCopy{DTD: tgt, Truth: c.truth}); err != nil {
				return violated(name, "pair does not provably embed: %v", err)
			}
		} else {
			wit, err := search.Find(src, tgt, att, search.Options{Heuristic: search.QualityOrdered, Seed: 1})
			if err != nil || wit.Embedding == nil {
				return violated(name, "corpus pair does not provably embed")
			}
			if err := wit.Embedding.Validate(att); err != nil {
				return violated(name, "invalid QualityOrdered witness: %v", err)
			}
		}
		c.want = ""
		if res.Embedding == nil {
			continue
		}
		if err := res.Embedding.Validate(att); err != nil {
			return violated(name, "invalid embedding: %v", err)
		}
		if c.amb == 1 {
			for a, b := range c.truth {
				if res.Embedding.Lambda[a] != b {
					return violated(name, "λ(%s) = %s, ground truth %s", a, res.Embedding.Lambda[a], b)
				}
			}
		}
		c.want = res.Embedding.Marshal()
	}
	return nil
}

func (w *searchWorkload) pass(i int) []op {
	r := rand.New(rand.NewSource(w.seed*7919 + int64(i)))
	ops := make([]op, len(w.cases))
	for j, k := range r.Perm(len(w.cases)) {
		c := w.cases[k]
		ops[j] = op{name: c.name, run: func(o *opCtx) error {
			res, _, err := c.find(o, false)
			if err != nil {
				return violated("search "+c.name, "search error: %v", err)
			}
			if o.tr != nil {
				w.record(res)
			}
			if (res.Embedding != nil) != (c.want != "") {
				return violated("search "+c.name, "found %v, the gate's search found %v", res.Embedding != nil, c.want != "")
			}
			if res.Embedding == nil {
				return failed("search %s: no embedding found", c.name)
			}
			return nil
		}}
	}
	return ops
}

func (w *searchWorkload) record(res *search.Result) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := &w.stats
	s.ops++
	if res.Embedding != nil {
		s.found++
	}
	s.restarts += float64(res.Restarts)
	s.steps += float64(res.Steps)
	s.paths += float64(res.PathsEnumerated)
}

// check runs every case again after the timed phase, on whatever state
// the timed searches left behind, and requires the gate's embedding
// exactly: every timed op found one exactly when the gate did, and a
// search that drifted after its first call shows here.
func (w *searchWorkload) check() error {
	for i, c := range w.cases {
		res, _, err := c.find(&opCtx{id: -1, root: -1}, false)
		if err != nil {
			return violated(fmt.Sprintf("search %s #%d", c.name, i), "search error: %v", err)
		}
		got := ""
		if res.Embedding != nil {
			got = res.Embedding.Marshal()
		}
		if got != c.want {
			return violated(fmt.Sprintf("search %s #%d", c.name, i), "embedding differs from the one the gate verified")
		}
	}
	return nil
}

// layers reports the search counts per op, and the rejection breakdown
// from one extra Explain pass over the distinct cases, run after
// timing ends.
func (w *searchWorkload) layers(m map[string]float64, agg *traceAgg, ops int) error {
	s := w.stats
	n := float64(max(s.ops, 1))
	m["dtd.parse_ms"] = agg.meanMS("dtd.parse")
	m["match.att_ms"] = agg.meanMS("match.att")
	m["search.find_ms"] = agg.meanMS("search.find")
	m["search.restarts"] = s.restarts / n
	m["search.steps"] = s.steps / n
	m["search.paths_enumerated"] = s.paths / n
	m["search.found_ratio"] = float64(s.found) / n
	m["search.bfs_expansions"] = agg.delta("xse_search_bfs_expansions_total") / n
	hits, misses := agg.delta("xse_search_path_cache_hits_total"), agg.delta("xse_search_path_cache_misses_total")
	if hits+misses > 0 {
		m["search.path_cache_hit_ratio"] = hits / (hits + misses)
	}
	var rej search.Rejections
	for _, c := range w.cases {
		res, _, err := c.find(&opCtx{id: -1, root: -1}, true)
		if err != nil {
			return fmt.Errorf("explain pass: %w", err)
		}
		rej.PathEmpty += res.Rejections.PathEmpty
		rej.LambdaEmpty += res.Rejections.LambdaEmpty
		rej.PrefixFree += res.Rejections.PrefixFree
		rej.LocalSelect += res.Rejections.LocalSelect
		rej.Conflict += res.Rejections.Conflict
	}
	k := float64(len(w.cases))
	m["search.rejections.path_empty"] = float64(rej.PathEmpty) / k
	m["search.rejections.lambda_empty"] = float64(rej.LambdaEmpty) / k
	m["search.rejections.prefix_free"] = float64(rej.PrefixFree) / k
	m["search.rejections.local_select"] = float64(rej.LocalSelect) / k
	m["search.rejections.conflict"] = float64(rej.Conflict) / k
	return nil
}
