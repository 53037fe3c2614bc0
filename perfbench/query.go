package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/anfa"
	"repro/internal/corpus"
	"repro/internal/embedding"
	"repro/internal/translate"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// queryPair is one corpus pair's query inputs and, after set-up, its
// embedding, warm automata and migrated documents.
type queryPair struct {
	name    string
	queries []xpath.Expr
	docs    []*xmltree.Tree // source documents

	emb      *embedding.Embedding
	autos    []*anfa.Automaton   // warm translations, index-aligned with queries
	direct   []*xpath.Program    // compiled source queries, index-aligned with queries
	migrated []*embedding.Result // σd(doc) with its idM, index-aligned with docs
	// want[q][d] is |Q(T)| of query q on document d, fixed by the gate.
	want [][]int
}

// queryWorkload answers source queries three ways: cold translated
// (fresh translator, translation with the optimizer, first compile,
// run), warm translated (cached program) and direct (compiled xpath on
// the source document).
type queryWorkload struct {
	seed  int64
	pairs []*queryPair

	mu    sync.Mutex
	stats queryStats
}

// queryStats accumulates traced ops' translation and answer counts.
type queryStats struct {
	cold, evals               int
	statesBefore, statesAfter float64
	selected                  float64
}

func newQueryWorkload(seed int64, size sizing) bench {
	w := &queryWorkload{seed: seed}
	r := rand.New(rand.NewSource(seed))
	// The generated queries come from a fixed generator seed: one
	// query's cost can exceed the rest together, so seed-drawn queries
	// would make runs incomparable. The seed varies the documents.
	qr := rand.New(rand.NewSource(1))
	// Many mid-sized documents of tightly held size: a compiled
	// program's scratch grows to the largest node id each state marks
	// in a document; with six 4,000-node documents, where a rare
	// element happened to fall moved allocation per op by a quarter
	// between seeds.
	randomQueries, docs, nodes := 5, 12, 2000
	if size == tinySize {
		randomQueries, docs, nodes = 1, 1, 200
	}
	for _, p := range corpus.MustPairs() {
		qp := &queryPair{name: p.Name, queries: append([]xpath.Expr(nil), p.Queries...)}
		for i := 0; i < randomQueries; i++ {
			qp.queries = append(qp.queries, xpath.RandomQuery(qr, p.Source, xpath.GenOptions{TranslatableOnly: true, MaxDepth: 3}))
		}
		for i := 0; i < docs; i++ {
			qp.docs = append(qp.docs, sizedDoc(p.Source, r, nodes, 50))
		}
		w.pairs = append(w.pairs, qp)
	}
	return w
}

// setup fixes each pair's embedding, translates and compiles every
// query (the warm automata) and compiles every query for direct
// evaluation.
func (w *queryWorkload) setup(o *opCtx) error {
	embs, err := corpusEmbeddings(o)
	if err != nil {
		return err
	}
	for i, qp := range w.pairs {
		qp.emb, qp.autos, qp.direct = embs[i], nil, nil
		var trl *translate.Translator
		o.span("translate.new", func() { trl, err = translate.New(qp.emb) })
		if err != nil {
			return fmt.Errorf("%s: %w", qp.name, err)
		}
		for _, q := range qp.queries {
			var auto *anfa.Automaton
			o.span("translate.translate", func() { auto, err = trl.TranslateCtx(context.Background(), q) })
			if err != nil {
				return fmt.Errorf("%s: translate %s: %w", qp.name, xpath.String(q), err)
			}
			o.span("anfa.compile", func() { auto.Program() })
			qp.autos = append(qp.autos, auto)
			var prog *xpath.Program
			o.span("xpath.compile", func() { prog = xpath.Compile(q) })
			qp.direct = append(qp.direct, prog)
		}
	}
	return nil
}

// gate migrates the source documents through σd (keeping each idM),
// then checks query preservation, Q(T) = idM(Tr(Q)(σd(T))), for every
// query on every document, and records each answer's size.
func (w *queryWorkload) gate() error {
	for _, qp := range w.pairs {
		qp.migrated = nil
		for _, d := range qp.docs {
			res, err := qp.emb.ApplyCtx(context.Background(), d)
			if err != nil {
				return violated("query "+qp.name, "migrate document: %v", err)
			}
			if err := res.Tree.Validate(qp.emb.Target); err != nil {
				return violated("query "+qp.name, "migrated document fails target validation: %v", err)
			}
			qp.migrated = append(qp.migrated, res)
		}
		qp.want = make([][]int, len(qp.queries))
		for i := range qp.queries {
			for j := range qp.docs {
				n, err := qp.preserved(i, j)
				if err != nil {
					return err
				}
				qp.want[i] = append(qp.want[i], n)
			}
		}
	}
	return nil
}

// check repeats the preservation check after the timed phase, on the
// warm automata the timed ops used.
func (w *queryWorkload) check() error {
	for _, qp := range w.pairs {
		for i := range qp.queries {
			for j := range qp.docs {
				if _, err := qp.preserved(i, j); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// preserved checks query i on document j: the translated automaton run
// on σd(T) must select exactly the idM images of the direct answer. It
// returns the answer's size.
func (qp *queryPair) preserved(i, j int) (int, error) {
	name := fmt.Sprintf("query %s %s doc %d", qp.name, xpath.String(qp.queries[i]), j)
	direct := map[xmltree.NodeID]bool{}
	for _, n := range xpath.Eval(qp.queries[i], qp.docs[j].Root) {
		direct[n.ID] = true
	}
	mres := qp.migrated[j]
	got := qp.autos[i].Program().Run(mres.Tree.Root)
	if len(got) != len(direct) {
		return 0, violated(name, "translated answer has %d nodes, direct answer %d", len(got), len(direct))
	}
	for _, n := range got {
		src, ok := mres.IDM[n.ID]
		if !ok {
			return 0, violated(name, "translated answer selects a default-filled node")
		}
		if !direct[src] {
			return 0, violated(name, "translated answer selects node %d outside the direct answer", src)
		}
	}
	return len(direct), nil
}

// pass runs, per pair and query, one cold translated, one warm
// translated and one direct op, each answering the query on every
// document of the pair, in a seeded order.
func (w *queryWorkload) pass(i int) []op {
	var ops []op
	for _, qp := range w.pairs {
		for qi, q := range qp.queries {
			ops = append(ops, op{name: "cold", run: func(o *opCtx) error {
				var trl *translate.Translator
				var auto *anfa.Automaton
				var err error
				o.span("translate.new", func() { trl, err = translate.New(qp.emb) })
				if err != nil {
					return violated("query cold", "translator: %v", err)
				}
				o.span("translate.translate", func() { auto, err = trl.TranslateCtx(context.Background(), q) })
				if err != nil {
					return violated("query cold", "translate %s: %v", xpath.String(q), err)
				}
				var prog *anfa.Program
				o.span("anfa.compile", func() { prog = auto.Program() })
				if o.tr != nil {
					opt := trl.LastOptStats()
					w.recordCold(opt)
				}
				return qp.runTranslated(o, "query cold", prog, qi, w)
			}},
				op{name: "warm", run: func(o *opCtx) error {
					return qp.runTranslated(o, "query warm", qp.autos[qi].Program(), qi, w)
				}},
				op{name: "direct", run: func(o *opCtx) error {
					for di, d := range qp.docs {
						var got []*xmltree.Node
						o.span("xpath.eval", func() { got = qp.direct[qi].Run(d.Root) })
						if len(got) != qp.want[qi][di] {
							return violated("query direct", "%s: %d nodes, gate saw %d", xpath.String(q), len(got), qp.want[qi][di])
						}
					}
					return nil
				}})
		}
	}
	r := rand.New(rand.NewSource(w.seed*7919 + int64(i)))
	r.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return ops
}

// runTranslated runs a translated program on every migrated document
// and checks each answer's size against the gate's.
func (qp *queryPair) runTranslated(o *opCtx, name string, prog *anfa.Program, qi int, w *queryWorkload) error {
	for di, m := range qp.migrated {
		var got []*xmltree.Node
		o.span("anfa.eval", func() { got = prog.Run(m.Tree.Root) })
		if len(got) != qp.want[qi][di] {
			return violated(name, "%s: %d nodes, gate saw %d", xpath.String(qp.queries[qi]), len(got), qp.want[qi][di])
		}
		if o.tr != nil {
			w.mu.Lock()
			w.stats.evals++
			w.stats.selected += float64(len(got))
			w.mu.Unlock()
		}
	}
	return nil
}

func (w *queryWorkload) recordCold(opt anfa.OptStats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats.cold++
	w.stats.statesBefore += float64(opt.StatesBefore)
	w.stats.statesAfter += float64(opt.StatesAfter)
}

func (w *queryWorkload) layers(m map[string]float64, agg *traceAgg, ops int) error {
	s := w.stats
	m["translate.translate_ms"] = agg.meanMS("translate.translate")
	m["anfa.compile_ms"] = agg.meanMS("anfa.compile")
	m["anfa.eval_ms"] = agg.meanMS("anfa.eval")
	m["xpath.eval_ms"] = agg.meanMS("xpath.eval")
	if s.cold > 0 {
		m["anfa.states_before"] = s.statesBefore / float64(s.cold)
		m["anfa.states_after"] = s.statesAfter / float64(s.cold)
	}
	if s.evals > 0 {
		m["anfa.nodes_selected"] = s.selected / float64(s.evals)
	}
	return nil
}
