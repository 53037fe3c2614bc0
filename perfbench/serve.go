package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// serveSource is one corpus source schema with its query pool and
// documents.
type serveSource struct {
	text    string
	queries []string // distinct, canonical
	docs    []string // canonical serializations
}

// servePair is one (source, noisy target) schema pair and, after the
// gate, the expected response bodies.
type servePair struct {
	src     *serveSource
	tgtText string
	// emb is the embedding /v1/embed must return (the library's
	// QualityOrdered search under the same settings).
	emb string
	// forward[d] is σd of the source's document d; sizes[q] the
	// automaton size of query q's translation.
	forward []string
	sizes   []int
}

// serveWorkload drives the daemon's handler in process with one
// closed-loop client: /v1/embed, /v1/translate and /v1/migrate
// (forward and inverse) over more distinct schema pairs and queries
// than the default caches hold, with Zipf-skewed keys.
type serveWorkload struct {
	seed    int64
	sources []*serveSource
	pairs   []*servePair
	// perPass is 300 requests, 100 per route: at about 600 requests
	// per second, a 20-second run holds some 40 passes for the per-pass
	// medians.
	perPass int
	// pairsPer is the number of noisy copies of each source.
	pairsPer int
	// queryRank maps a Zipf rank to a query index; seeded, so each seed
	// has its own hot queries. Pairs are ranked afresh every
	// rankPasses passes (rankPairs).
	queryRank []int

	h    http.Handler
	reqs atomic.Int64

	mu    sync.Mutex
	stats serveStats
}

// serveStats accumulates traced ops' artifact-cache flags.
type serveStats struct{ cached, responses int }

const (
	servePairsPerSource = 24  // 96 pairs: embed and pair artifacts far exceed the 64-entry cache
	serveQueries        = 144 // distinct queries per source, above the 128-entry translation cache
)

func newServeWorkload(seed int64, size sizing) bench {
	w := &serveWorkload{seed: seed, perPass: 300}
	r := rand.New(rand.NewSource(seed))
	queries, docs, nodes := serveQueries, 4, 1500
	w.pairsPer = servePairsPerSource
	if size == tinySize {
		w.pairsPer, queries, docs, nodes, w.perPass = 2, 8, 1, 100, 36
	}
	pairsPer := w.pairsPer
	for _, p := range corpus.MustPairs() {
		src := &serveSource{text: p.SourceText}
		seen := map[string]bool{}
		for _, q := range p.Queries {
			src.add(q, seen)
		}
		for tries := 0; len(src.queries) < queries && tries < 100*queries; tries++ {
			src.add(xpath.RandomQuery(r, p.Source, xpath.GenOptions{TranslatableOnly: true, MaxDepth: 3}), seen)
		}
		for d := 0; d < docs; d++ {
			src.docs = append(src.docs, sizedDoc(p.Source, r, nodes, 50).String())
		}
		w.sources = append(w.sources, src)
		// Rename-free noise keeps lexical att informative, so /v1/embed
		// finds every pair; the copies differ in wrapper insertions and
		// required-content enrichment. The level is the knob's top:
		// newsml's six edges give only six distinct copies at 0.5.
		targets := map[string]bool{}
		for tries := 0; len(targets) < pairsPer; tries++ {
			if tries == 100*pairsPer {
				panic(fmt.Sprintf("serve: %s: too few distinct noisy copies", p.Name))
			}
			opts := workload.NoiseLevel(1)
			opts.RenameFrac = 0
			nc := workload.Noise(p.Source, opts, r)
			t := nc.DTD.String()
			if !targets[t] {
				targets[t] = true
				w.pairs = append(w.pairs, &servePair{src: src, tgtText: t})
			}
		}
	}
	w.queryRank = r.Perm(queries)
	return w
}

// add appends q to the pool unless its canonical form is already there.
func (s *serveSource) add(q xpath.Expr, seen map[string]bool) {
	t := xpath.String(q)
	if !seen[t] {
		seen[t] = true
		s.queries = append(s.queries, t)
	}
}

// setup builds the server with the default configuration.
func (w *serveWorkload) setup(o *opCtx) error {
	o.span("server.new", func() { w.h = server.New(server.Config{}).Handler() })
	return nil
}

// gate computes every expected response with the library, untimed:
// each pair's embedding (QualityOrdered over lexical att, as /v1/embed
// runs it), validated; each document's σd image, validated against the
// target schema and mapped back to the source; each query's translated
// automaton size.
func (w *serveWorkload) gate() error {
	for i, p := range w.pairs {
		name := fmt.Sprintf("serve pair #%d", i)
		src, err := dtd.Parse(p.src.text, "")
		if err != nil {
			return err
		}
		tgt, err := dtd.Parse(p.tgtText, "")
		if err != nil {
			return err
		}
		res, err := search.Find(src, tgt, match.Lexical(src, tgt, 0.5),
			search.Options{Heuristic: search.QualityOrdered, Seed: 1, MaxRestarts: 40})
		if err != nil || res.Embedding == nil {
			return violated(name, "library search finds no embedding (err %v)", err)
		}
		emb := res.Embedding
		if err := emb.Validate(nil); err != nil {
			return violated(name, "invalid embedding: %v", err)
		}
		p.emb = emb.Marshal()
		prog, err := emb.CompileStream()
		if err != nil {
			return violated(name, "compile stream program: %v", err)
		}
		p.forward = nil
		for _, doc := range p.src.docs {
			var out strings.Builder
			if _, err := prog.Run(context.Background(), strings.NewReader(doc), &out, embedding.StreamOptions{}); err != nil {
				return violated(name, "forward: %v", err)
			}
			tree, err := xmltree.ParseString(out.String())
			if err != nil {
				return violated(name, "forward output does not parse: %v", err)
			}
			if err := tree.Validate(tgt); err != nil {
				return violated(name, "forward output fails target validation: %v", err)
			}
			back, err := emb.Invert(tree)
			if err != nil || back.String() != doc {
				return violated(name, "σd⁻¹(σd(T)) ≠ T (err %v)", err)
			}
			p.forward = append(p.forward, out.String())
		}
		trl, err := translate.New(emb)
		if err != nil {
			return violated(name, "translator: %v", err)
		}
		p.sizes = nil
		for _, q := range p.src.queries {
			auto, err := trl.TranslateCtx(context.Background(), xpath.MustParse(q))
			if err != nil {
				return violated(name, "translate %s: %v", q, err)
			}
			p.sizes = append(p.sizes, auto.Size())
		}
	}
	return nil
}

// serveRoutes are the request kinds, one for each of the three routes
// except /v1/migrate, whose requests split evenly between forward and
// inverse. No record of real traffic exists to weigh the routes by, so
// every pass holds each route equally often.
var serveRoutes = []string{"embed", "translate", "migrate-forward", "embed", "translate", "migrate-inverse"}

// serveZipfS is the Zipf exponent of the key draws: classical Zipf is
// s = 1, and math/rand's generator needs s > 1.
const serveZipfS = 1.1

// pass holds w.perPass requests (a multiple of len(serveRoutes)), the
// same number of each kind in a seeded order: a pair by Zipf rank, and
// for translate a query by Zipf rank, for migrate a document.
func (w *serveWorkload) pass(i int) []op {
	r := rand.New(rand.NewSource(w.seed*7919 + int64(i)))
	pairRank := w.rankPairs(i / rankPasses)
	pz := rand.NewZipf(r, serveZipfS, 1, uint64(len(w.pairs)-1))
	qz := rand.NewZipf(r, serveZipfS, 1, uint64(len(w.queryRank)-1))
	ops := make([]op, w.perPass)
	for k, j := range r.Perm(w.perPass) {
		route := serveRoutes[j%len(serveRoutes)]
		p := w.pairs[pairRank[pz.Uint64()]]
		q := w.queryRank[qz.Uint64()]
		d := r.Intn(len(p.src.docs))
		ops[k] = op{name: route, run: func(o *opCtx) error { return w.request(o, route, p, q, d) }}
	}
	return ops
}

// rankPasses is how many consecutive passes share one pair ranking.
// Each ranking starts its new hot pairs with cold caches: a ranking
// per pass cut the translation-cache hit ratio from 0.45 to 0.19, one
// per five passes to 0.34.
const rankPasses = 5

// rankPairs is the pair ranking of the given epoch: it maps each Zipf
// rank to a pair index. The ranks take the sources in turn, so each
// source gets the same share of traffic, and the seed and epoch pick
// which noisy copy of a source holds each of its ranks. The copies
// differ in how much a document grows through them, so with one
// ranking per run the few hottest copies of a seed set its migrate
// latencies: over ten seeds p90 ranged from 3.7 to 5.9 ms, and a
// second set of runs had the same slowest and fastest seeds. A run of
// some 40 passes sees eight rankings.
func (w *serveWorkload) rankPairs(epoch int) []int {
	r := rand.New(rand.NewSource(w.seed*104729 + int64(epoch)))
	nsrc := len(w.sources)
	perms := make([][]int, nsrc)
	for i := range perms {
		perms[i] = r.Perm(w.pairsPer)
	}
	rank := make([]int, len(w.pairs))
	for k := range rank {
		rank[k] = k%nsrc*w.pairsPer + perms[k%nsrc][k/nsrc]
	}
	return rank
}

// request sends one request to the handler and checks its response.
// The op's latency is the handler call alone.
func (w *serveWorkload) request(o *opCtx, route string, p *servePair, q, d int) error {
	pair := map[string]any{"source_dtd": p.src.text, "target_dtd": p.tgtText}
	path := "/v1/migrate"
	switch route {
	case "embed":
		path = "/v1/embed"
		pair["heuristic"] = "quality"
	case "translate":
		path = "/v1/translate"
		pair["embedding"], pair["query"] = p.emb, p.src.queries[q]
	case "migrate-forward":
		pair["embedding"], pair["document"] = p.emb, p.src.docs[d]
	case "migrate-inverse":
		pair["embedding"], pair["document"], pair["invert"] = p.emb, p.forward[d], true
	}
	body, err := json.Marshal(pair)
	if err != nil {
		return err
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", fmt.Sprintf("perfbench-%d", w.reqs.Add(1)))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	o.span("server."+strings.TrimPrefix(path, "/v1/"), func() { w.h.ServeHTTP(rec, req) })
	o.lat = time.Since(t0)
	if rec.Code/100 != 2 {
		return failed("%s: status %d: %s", route, rec.Code, firstLine(rec.Body.String()))
	}
	name := "serve " + route
	var cached bool
	switch route {
	case "embed":
		var resp server.EmbedResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return violated(name, "response body: %v", err)
		}
		if resp.Embedding != p.emb {
			return violated(name, "embedding differs from the library's")
		}
		cached = resp.Cached
	case "translate":
		var resp server.TranslateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return violated(name, "response body: %v", err)
		}
		if resp.Query != p.src.queries[q] || resp.AutomatonSize != p.sizes[q] {
			return violated(name, "%s: automaton size %d, library %d", resp.Query, resp.AutomatonSize, p.sizes[q])
		}
		cached = resp.Cached
	default:
		var resp server.MigrateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return violated(name, "response body: %v", err)
		}
		want := p.forward[d]
		if route == "migrate-inverse" {
			want = p.src.docs[d]
		}
		if resp.Document != want {
			return violated(name, "migrated document differs from the library's")
		}
		cached = resp.Cached
	}
	if o.tr != nil {
		w.mu.Lock()
		w.stats.responses++
		if cached {
			w.stats.cached++
		}
		w.mu.Unlock()
	}
	return nil
}

func (w *serveWorkload) check() error { return nil }

// layers reports per-route handler time from the spans, the
// artifact-cache hit ratio from the responses' cached flags, the
// translation-cache ratio, sheds and retries from the server's own
// counters, and the queue wait from the wide events the server keeps in
// its flight recorder (the most recent ones).
func (w *serveWorkload) layers(m map[string]float64, agg *traceAgg, ops int) error {
	m["server.request_ms.embed"] = agg.meanMS("server.embed")
	m["server.request_ms.translate"] = agg.meanMS("server.translate")
	m["server.request_ms.migrate"] = agg.meanMS("server.migrate")
	if s := w.stats; s.responses > 0 {
		m["server.artifact_hit_ratio"] = float64(s.cached) / float64(s.responses)
	}
	hits, misses := agg.delta("xse_translate_cache_hits_total"), agg.delta("xse_translate_cache_misses_total")
	if hits+misses > 0 {
		m["server.translate_cache_hit_ratio"] = hits / (hits + misses)
	}
	m["server.shed"] = agg.delta("xse_server_shed_total") / float64(ops)
	m["server.retries"] = agg.delta("xse_server_retries_total") / float64(ops)
	var wait float64
	n := 0
	for _, ev := range obs.Events().Snapshot() {
		var id string
		var qw float64
		var ok bool
		for _, a := range ev.Attrs {
			switch a.Key {
			case "request_id":
				id = a.Value.String()
			case "queue_wait_ms":
				qw, ok = a.Value.Float64(), true
			}
		}
		if ok && strings.HasPrefix(id, "perfbench-") {
			wait += qw
			n++
		}
	}
	if n > 0 {
		m["server.queue_wait_ms"] = wait / float64(n)
	}
	return nil
}
