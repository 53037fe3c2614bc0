// Package experiments implements the reproduction of the paper's
// experimental study (§5.2 and the VLDB'05 companion), one driver per
// experiment id of DESIGN.md (E1–E7). Each driver returns a Table whose
// rows match the series the paper reports: heuristic success rates
// against noise (E1) and att accuracy (E2), running time against schema
// size (E3), the instance-mapping, inverse and query-translation
// scaling claims of Theorems 4.1/4.3 (E4–E6), and ablations of the
// search machinery (E7). cmd/xse-bench prints the tables; bench_test.go
// wraps the same drivers as testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/match"
	"repro/internal/reduction"
	"repro/internal/search"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Config scales the experiment drivers.
type Config struct {
	// Seed makes runs reproducible.
	Seed int64
	// Trials per configuration point (default 20; Quick reduces work).
	Trials int
	// Quick shrinks sweeps for use inside go test / CI.
	Quick bool
	// SearchTimeout bounds each individual embedding search; a timed-out
	// trial counts as a failure instead of stalling the whole sweep.
	// Zero means no per-search deadline.
	SearchTimeout time.Duration
}

// find runs one embedding search under the Config's per-search
// timeout via search.FindCtx.
func (c Config) find(src, tgt *dtd.DTD, att *embedding.SimMatrix, opts search.Options) (*search.Result, error) {
	ctx := context.Background()
	if c.SearchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.SearchTimeout)
		defer cancel()
	}
	return search.FindCtx(ctx, src, tgt, att, opts)
}

func (c Config) withDefaults() Config {
	if c.Trials == 0 {
		if c.Quick {
			c.Trials = 5
		} else {
			c.Trials = 20
		}
	}
	return c
}

// Table is one reproduced table/figure.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	for i, w := range widths {
		widths[i] = w
		b.WriteString(strings.Repeat("-", w) + "  ")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

var heuristics = []search.Heuristic{search.Random, search.QualityOrdered, search.IndepSet}

// E1AccuracyVsNoise sweeps the noise level on copies of corpus schemas
// and reports, per heuristic, the fraction of trials in which a valid
// embedding was found (success) and in which its λ equals the ground
// truth (correct).
func E1AccuracyVsNoise(cfg Config) Table {
	cfg = cfg.withDefaults()
	levels := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	bases := []workload.NamedDTD{
		{Name: "orders", DTD: workload.OrdersDTD()},
		{Name: "biblio", DTD: workload.BiblioDTD()},
	}
	if cfg.Quick {
		levels = []float64{0, 0.25, 0.5}
		bases = bases[:1]
	}
	t := Table{
		ID:      "E1",
		Title:   "heuristic success/correct rate vs. introduced noise (att accuracy 1.0, ambiguity 2)",
		Columns: []string{"schema", "noise", "heuristic", "success", "correct"},
		Notes:   "paper: Random finds a high percentage of correct solutions across noise levels",
	}
	for _, base := range bases {
		for _, level := range levels {
			for _, h := range heuristics {
				succ, corr := 0, 0
				for trial := 0; trial < cfg.Trials; trial++ {
					r := rand.New(rand.NewSource(cfg.Seed + int64(trial)*7919))
					nc := workload.Noise(base.DTD, workload.NoiseLevel(level), r)
					att := match.Synthetic(base.DTD, nc.DTD, nc.Truth,
						match.SyntheticOptions{Accuracy: 1, Ambiguity: 2}, r)
					res, err := cfg.find(base.DTD, nc.DTD, att,
						search.Options{Heuristic: h, Seed: cfg.Seed + int64(trial), MaxRestarts: 25})
					if err != nil || res.Embedding == nil {
						continue
					}
					succ++
					if lambdaMatches(res.Embedding, nc.Truth) {
						corr++
					}
				}
				t.Rows = append(t.Rows, []string{
					base.Name,
					fmt.Sprintf("%.0f%%", level*100),
					h.String(),
					pct(succ, cfg.Trials),
					pct(corr, cfg.Trials),
				})
			}
		}
	}
	return t
}

// E2AccuracyVsAtt fixes a noisy pair and sweeps matcher accuracy and
// ambiguity, the experiment behind "a high percentage of correct
// solutions over a wide range of att accuracies".
func E2AccuracyVsAtt(cfg Config) Table {
	cfg = cfg.withDefaults()
	accuracies := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	ambiguities := []int{2, 4}
	if cfg.Quick {
		accuracies = []float64{0.5, 0.75, 1.0}
		ambiguities = []int{2}
	}
	base := workload.OrdersDTD()
	t := Table{
		ID:      "E2",
		Title:   "Random-heuristic success/correct rate vs. att accuracy (orders schema, noise 20%)",
		Columns: []string{"accuracy", "ambiguity", "success", "correct"},
		Notes:   "information-preserving search recovers from imperfect matchers: valid embeddings rank truthful matches",
	}
	for _, amb := range ambiguities {
		for _, acc := range accuracies {
			succ, corr := 0, 0
			for trial := 0; trial < cfg.Trials; trial++ {
				r := rand.New(rand.NewSource(cfg.Seed + int64(trial)*104729))
				nc := workload.Noise(base, workload.NoiseLevel(0.2), r)
				att := match.Synthetic(base, nc.DTD, nc.Truth,
					match.SyntheticOptions{Accuracy: acc, Ambiguity: amb}, r)
				res, err := cfg.find(base, nc.DTD, att,
					search.Options{Heuristic: search.Random, Seed: cfg.Seed + int64(trial), MaxRestarts: 25})
				if err != nil || res.Embedding == nil {
					continue
				}
				succ++
				if lambdaMatches(res.Embedding, nc.Truth) {
					corr++
				}
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.2f", acc),
				fmt.Sprintf("%d", amb),
				pct(succ, cfg.Trials),
				pct(corr, cfg.Trials),
			})
		}
	}
	return t
}

// E3RuntimeVsSize sweeps schema size and reports search time,
// reproducing "running times are in the range of seconds or minutes"
// on "schemas up to a few hundred nodes".
func E3RuntimeVsSize(cfg Config) Table {
	cfg = cfg.withDefaults()
	sizes := []int{25, 50, 100, 200, 400}
	if cfg.Quick {
		sizes = []int{25, 50, 100}
	}
	t := Table{
		ID:      "E3",
		Title:   "Random-heuristic search time vs. schema size (synthetic schemas, noise 20%, ambiguity 2)",
		Columns: []string{"|E1|", "|E2|", "success", "avg time", "max time"},
		Notes:   "paper reports seconds-to-minutes on schemas up to a few hundred nodes",
	}
	trials := cfg.Trials
	if trials > 8 {
		trials = 8
	}
	for _, size := range sizes {
		var total, max time.Duration
		succ := 0
		tgtSize := 0
		for trial := 0; trial < trials; trial++ {
			r := rand.New(rand.NewSource(cfg.Seed + int64(size*1000+trial)))
			base, err := workload.SyntheticDTD(r, size)
			if err != nil {
				continue
			}
			nc := workload.Noise(base, workload.NoiseLevel(0.2), r)
			tgtSize = nc.DTD.Size()
			att := match.Synthetic(base, nc.DTD, nc.Truth,
				match.SyntheticOptions{Accuracy: 1, Ambiguity: 2}, r)
			res, err := cfg.find(base, nc.DTD, att,
				search.Options{Heuristic: search.Random, Seed: cfg.Seed + int64(trial), MaxRestarts: 15})
			if err != nil {
				continue
			}
			total += res.Elapsed
			if res.Elapsed > max {
				max = res.Elapsed
			}
			if res.Embedding != nil {
				succ++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%d", tgtSize),
			pct(succ, trials),
			(total / time.Duration(trials)).Round(time.Microsecond).String(),
			max.Round(time.Microsecond).String(),
		})
	}
	return t
}

// E4InstMapScaling measures σd against document size: InstMap is linear
// in the size of the produced document (§4.2).
func E4InstMapScaling(cfg Config) Table {
	cfg = cfg.withDefaults()
	emb := workload.ClassEmbedding()
	sizes := []int{10, 100, 1000, 10000}
	if cfg.Quick {
		sizes = []int{10, 100, 1000}
	}
	t := Table{
		ID:      "E4",
		Title:   "InstMap (σd) scaling on the Figure 1 embedding",
		Columns: []string{"src nodes", "tgt nodes", "time", "ns/tgt node"},
		Notes:   "the per-node cost should stay flat (linear algorithm)",
	}
	for _, n := range sizes {
		doc := classDocument(n)
		start := time.Now()
		res, err := emb.Apply(doc)
		if err != nil {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", doc.Size()), "error", err.Error(), ""})
			continue
		}
		el := time.Since(start)
		tgtN := res.Tree.Size()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", doc.Size()),
			fmt.Sprintf("%d", tgtN),
			el.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", float64(el.Nanoseconds())/float64(tgtN)),
		})
	}
	return t
}

// E5InverseScaling measures σd⁻¹ and checks the round trip, per
// Theorem 4.3(a) (O(|σd(T)|²) worst case; near-linear here because
// navigation is position-directed).
func E5InverseScaling(cfg Config) Table {
	cfg = cfg.withDefaults()
	emb := workload.ClassEmbedding()
	sizes := []int{10, 100, 1000, 10000}
	if cfg.Quick {
		sizes = []int{10, 100, 1000}
	}
	t := Table{
		ID:      "E5",
		Title:   "inverse (σd⁻¹) scaling and round-trip check on the Figure 1 embedding",
		Columns: []string{"tgt nodes", "time", "ns/tgt node", "round trip"},
	}
	for _, n := range sizes {
		doc := classDocument(n)
		res, err := emb.Apply(doc)
		if err != nil {
			continue
		}
		start := time.Now()
		back, err := emb.Invert(res.Tree)
		el := time.Since(start)
		ok := err == nil && xmltree.Equal(doc, back)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", res.Tree.Size()),
			el.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", float64(el.Nanoseconds())/float64(res.Tree.Size())),
			fmt.Sprintf("%v", ok),
		})
	}
	return t
}

// E6QueryTranslation sweeps query size and reports translation time and
// automaton size against the O(|Q|·|σ|·|S1|) bound of Theorem 4.3(b),
// plus the answer-preservation check of Theorem 4.2.
func E6QueryTranslation(cfg Config) Table {
	cfg = cfg.withDefaults()
	emb := workload.ClassEmbedding()
	tr, err := translate.New(emb)
	if err != nil {
		return Table{ID: "E6", Title: err.Error()}
	}
	t := Table{
		ID:      "E6",
		Title:   "query translation on the Figure 1 embedding (random translatable X_R queries)",
		Columns: []string{"|Q| bucket", "queries", "avg |Tr(Q)|", "bound ratio", "avg time", "preserved"},
		Notes:   "bound ratio = |Tr(Q)| / (|Q|·|σ|·|S1|), must stay below a small constant",
	}
	r := rand.New(rand.NewSource(cfg.Seed + 61))
	doc := classDocument(60)
	res, err := emb.Apply(doc)
	if err != nil {
		return Table{ID: "E6", Title: err.Error()}
	}
	type bucket struct {
		lo, hi int
		n      int
		size   int
		ratio  float64
		dur    time.Duration
		pres   int
	}
	buckets := []*bucket{{lo: 1, hi: 5}, {lo: 6, hi: 12}, {lo: 13, hi: 25}, {lo: 26, hi: 60}}
	queries := 40 * cfg.Trials / 5
	sigma := emb.PathSize()
	s1 := emb.Source.Size()
	for i := 0; i < queries; i++ {
		q := xpath.RandomQuery(r, emb.Source, xpath.GenOptions{MaxDepth: 2 + r.Intn(4), TranslatableOnly: true})
		qs := xpath.Size(q)
		var bk *bucket
		for _, b := range buckets {
			if qs >= b.lo && qs <= b.hi {
				bk = b
			}
		}
		if bk == nil {
			continue
		}
		start := time.Now()
		auto, err := tr.Translate(q)
		el := time.Since(start)
		if err != nil {
			continue
		}
		bk.n++
		bk.size += auto.Size()
		bk.ratio += float64(auto.Size()) / float64(qs*sigma*s1)
		bk.dur += el
		want := xpath.Eval(q, doc.Root)
		got := auto.Eval(res.Tree.Root)
		if res.Preserves(want, got) == nil {
			bk.pres++
		}
	}
	for _, b := range buckets {
		if b.n == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d-%d", b.lo, b.hi),
			fmt.Sprintf("%d", b.n),
			fmt.Sprintf("%.0f", float64(b.size)/float64(b.n)),
			fmt.Sprintf("%.3f", b.ratio/float64(b.n)),
			(b.dur / time.Duration(b.n)).Round(time.Microsecond).String(),
			pct(b.pres, b.n),
		})
	}
	return t
}

// E7Ablation contrasts (a) the PTIME unambiguous case against ambiguous
// att, (b) Random against the exact solver on small schemas, and (c)
// satisfiable against unsatisfiable 3SAT adversarial instances.
func E7Ablation(cfg Config) Table {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E7",
		Title:   "ablations: ambiguity, exactness, adversarial instances",
		Columns: []string{"scenario", "config", "success", "avg time", "avg steps"},
	}
	// (a) ambiguity sweep on the class->school pair.
	src, tgt := workload.ClassDTD(), workload.SchoolDTD()
	truth := workload.ClassEmbedding().Lambda
	for _, amb := range []int{1, 2, 4, 8} {
		var dur time.Duration
		steps, succ := 0, 0
		for trial := 0; trial < cfg.Trials; trial++ {
			r := rand.New(rand.NewSource(cfg.Seed + int64(trial)))
			att := match.Synthetic(src, tgt, truth, match.SyntheticOptions{Accuracy: 1, Ambiguity: amb}, r)
			res, err := cfg.find(src, tgt, att, search.Options{Heuristic: search.Random, Seed: int64(trial)})
			if err != nil {
				continue
			}
			dur += res.Elapsed
			steps += res.Steps
			if res.Embedding != nil {
				succ++
			}
		}
		t.Rows = append(t.Rows, []string{
			"ambiguity (class→school)",
			fmt.Sprintf("k=%d", amb),
			pct(succ, cfg.Trials),
			(dur / time.Duration(cfg.Trials)).Round(time.Microsecond).String(),
			fmt.Sprintf("%d", steps/cfg.Trials),
		})
	}
	// (b) Random vs Exact on small synthetic pairs.
	for _, h := range []search.Heuristic{search.Random, search.Exact} {
		var dur time.Duration
		succ := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			r := rand.New(rand.NewSource(cfg.Seed + 31*int64(trial)))
			base, err := workload.SyntheticDTD(r, 10)
			if err != nil {
				continue
			}
			nc := workload.Noise(base, workload.NoiseLevel(0.3), r)
			att := match.Synthetic(base, nc.DTD, nc.Truth, match.SyntheticOptions{Accuracy: 1, Ambiguity: 2}, r)
			res, err := cfg.find(base, nc.DTD, att, search.Options{Heuristic: h, Seed: int64(trial)})
			if err != nil {
				continue
			}
			dur += res.Elapsed
			if res.Embedding != nil {
				succ++
			}
		}
		t.Rows = append(t.Rows, []string{
			"heuristic vs exact (|E1|=10)",
			h.String(),
			pct(succ, cfg.Trials),
			(dur / time.Duration(cfg.Trials)).Round(time.Microsecond).String(),
			"",
		})
	}
	// (c) 3SAT adversarial instances.
	sat := reduction.Formula{Vars: 3, Clauses: []reduction.Clause{{1, 2, 3}, {-1, 2, 3}, {1, -2, 3}}}
	unsat := reduction.Formula{Vars: 2, Clauses: []reduction.Clause{{1, 2}, {1, -2}, {-1, 2}, {-1, -2}}}
	for _, tc := range []struct {
		name string
		f    reduction.Formula
	}{{"satisfiable", sat}, {"unsatisfiable", unsat}} {
		s1, s2, att, err := reduction.Schemas(tc.f)
		if err != nil {
			continue
		}
		start := time.Now()
		res, err := cfg.find(s1, s2, att, search.Options{Heuristic: search.Exact})
		el := time.Since(start)
		found := err == nil && res.Embedding != nil
		t.Rows = append(t.Rows, []string{
			"3SAT reduction (exact)",
			tc.name,
			fmt.Sprintf("%v", found),
			el.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", res.Steps),
		})
	}
	return t
}

// All runs every experiment.
func All(cfg Config) []Table {
	return []Table{
		E1AccuracyVsNoise(cfg),
		E2AccuracyVsAtt(cfg),
		E3RuntimeVsSize(cfg),
		E4InstMapScaling(cfg),
		E5InverseScaling(cfg),
		E6QueryTranslation(cfg),
		E7Ablation(cfg),
	}
}

// ByID returns one experiment by id ("e1".."e7").
func ByID(id string, cfg Config) (Table, bool) {
	switch strings.ToLower(id) {
	case "e1":
		return E1AccuracyVsNoise(cfg), true
	case "e2":
		return E2AccuracyVsAtt(cfg), true
	case "e3":
		return E3RuntimeVsSize(cfg), true
	case "e4":
		return E4InstMapScaling(cfg), true
	case "e5":
		return E5InverseScaling(cfg), true
	case "e6":
		return E6QueryTranslation(cfg), true
	case "e7":
		return E7Ablation(cfg), true
	}
	return Table{}, false
}

func pct(n, total int) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(n)/float64(total))
}

func lambdaMatches(e *embedding.Embedding, truth map[string]string) bool {
	for a, b := range truth {
		if e.Lambda[a] != b {
			return false
		}
	}
	return true
}

// classDocument builds a class document with n classes, chained so that
// roughly a third are prerequisites (exercising recursion).
func classDocument(n int) *xmltree.Tree {
	t := &xmltree.Tree{}
	root := t.NewElement("db")
	t.Root = root
	for i := 0; i < n; i++ {
		cls := newClass(t, i)
		if i%3 == 0 && i+1 < n {
			// Give this class a prerequisite chain of one.
			i++
			pre := newClass(t, i)
			// type/regular/prereq/class
			ty := t.NewElement("type")
			reg := t.NewElement("regular")
			prq := t.NewElement("prereq")
			xmltree.Append(reg, prq)
			xmltree.Append(ty, reg)
			xmltree.Append(prq, pre)
			// Replace the project type with the regular chain.
			cls.Children[2] = ty
			ty.Parent = cls
		}
		xmltree.Append(root, cls)
	}
	return t
}

func newClass(t *xmltree.Tree, i int) *xmltree.Node {
	cls := t.NewElement("class")
	cno := t.NewElement("cno")
	xmltree.Append(cno, t.NewText(fmt.Sprintf("CS%03d", i)))
	title := t.NewElement("title")
	xmltree.Append(title, t.NewText(fmt.Sprintf("Course %d", i)))
	ty := t.NewElement("type")
	prj := t.NewElement("project")
	xmltree.Append(prj, t.NewText("p"))
	xmltree.Append(ty, prj)
	xmltree.Append(cls, cno)
	xmltree.Append(cls, title)
	xmltree.Append(cls, ty)
	return cls
}
