package search_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/match"
	"repro/internal/reduction"
	"repro/internal/search"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// TestIdentityEmbedding: with an unambiguous att (truth = identity),
// every heuristic recovers the identity embedding of each corpus schema
// into itself — the PTIME case of §5.2.
func TestIdentityEmbedding(t *testing.T) {
	for _, named := range workload.Corpus() {
		for _, h := range []search.Heuristic{search.Random, search.QualityOrdered, search.IndepSet, search.Exact} {
			t.Run(named.Name+"/"+h.String(), func(t *testing.T) {
				truth := map[string]string{}
				for _, a := range named.DTD.Types {
					truth[a] = a
				}
				att := match.Synthetic(named.DTD, named.DTD, truth,
					match.SyntheticOptions{Accuracy: 1, Ambiguity: 1}, rand.New(rand.NewSource(1)))
				res, err := search.Find(named.DTD, named.DTD, att, search.Options{Heuristic: h, Seed: 7})
				if err != nil {
					t.Fatalf("Find: %v", err)
				}
				if res.Embedding == nil {
					t.Fatalf("no embedding found (restarts=%d steps=%d)", res.Restarts, res.Steps)
				}
				for a, b := range res.Embedding.Lambda {
					if a != b {
						t.Errorf("λ(%s) = %s, want identity", a, b)
					}
				}
			})
		}
	}
}

// TestFigure1Search: the class and student DTDs embed into the school
// DTD under the unrestricted att (Example 4.2 / 4.9 discovered
// automatically).
func TestFigure1Search(t *testing.T) {
	school := workload.SchoolDTD()
	for _, tc := range []struct {
		name string
		src  *dtd.DTD
	}{
		{"class", workload.ClassDTD()},
		{"student", workload.StudentDTD()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := search.Find(tc.src, school, nil, search.Options{Heuristic: search.Random, Seed: 3, MaxRestarts: 60})
			if err != nil {
				t.Fatalf("Find: %v", err)
			}
			if res.Embedding == nil {
				t.Fatalf("no embedding found after %d restarts, %d steps", res.Restarts, res.Steps)
			}
			// Found embeddings must be usable end to end.
			r := rand.New(rand.NewSource(5))
			src := xmltree.MustGenerate(tc.src, r, xmltree.GenOptions{})
			out, err := res.Embedding.Apply(src)
			if err != nil {
				t.Fatalf("Apply: %v\n%s", err, res.Embedding)
			}
			if err := out.Tree.Validate(school); err != nil {
				t.Fatalf("type safety: %v", err)
			}
			back, err := res.Embedding.Invert(out.Tree)
			if err != nil {
				t.Fatalf("Invert: %v", err)
			}
			if !xmltree.Equal(src, back) {
				t.Errorf("round trip through found embedding: %s", xmltree.Diff(src, back))
			}
		})
	}
}

// TestNoEmbeddingExhaustive: on the impossible Figure 3 scenarios the
// exact solver proves there is no embedding for any λ.
func TestNoEmbeddingExhaustive(t *testing.T) {
	cases := []struct {
		name     string
		src, tgt *dtd.DTD
	}{
		{
			"concat-into-disjunction",
			dtd.MustNew("A", dtd.D("A", dtd.Concat("B", "C")), dtd.D("B", dtd.Empty()), dtd.D("C", dtd.Empty())),
			dtd.MustNew("A1", dtd.D("A1", dtd.Disj("B1", "C1")), dtd.D("B1", dtd.Empty()), dtd.D("C1", dtd.Empty())),
		},
		{
			"star-into-concat",
			dtd.MustNew("A", dtd.D("A", dtd.Star("B")), dtd.D("B", dtd.Empty())),
			dtd.MustNew("A1", dtd.D("A1", dtd.Concat("B1")), dtd.D("B1", dtd.Empty())),
		},
		{
			"prefix-trap",
			dtd.MustNew("A", dtd.D("A", dtd.Concat("B", "C")), dtd.D("B", dtd.Empty()), dtd.D("C", dtd.Empty())),
			dtd.MustNew("A1", dtd.D("A1", dtd.Concat("B1")), dtd.D("B1", dtd.Concat("C1")), dtd.D("C1", dtd.Empty())),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := search.Find(tc.src, tc.tgt, nil, search.Options{Heuristic: search.Exact})
			if err != nil {
				t.Fatal(err)
			}
			if res.Embedding != nil {
				t.Fatalf("found an embedding where none should exist:\n%s", res.Embedding)
			}
			if !res.Exhausted {
				t.Error("exact search did not report exhaustion")
			}
		})
	}
}

// TestCycleUnfoldingFound: the Figure 3(e) target requires unfolding a
// cycle; the search finds it.
func TestCycleUnfoldingFound(t *testing.T) {
	src := dtd.MustNew("A", dtd.D("A", dtd.Concat("B", "C")), dtd.D("B", dtd.Empty()), dtd.D("C", dtd.Empty()))
	tgt := dtd.MustNew("A1",
		dtd.D("A1", dtd.Concat("B1")),
		dtd.D("B1", dtd.Concat("C1", "As")),
		dtd.D("C1", dtd.Empty()),
		dtd.D("As", dtd.Star("A1")))
	res, err := search.Find(src, tgt, nil, search.Options{Heuristic: search.Exact})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding == nil {
		t.Fatal("no embedding found; cycle unfolding required")
	}
}

// TestReductionSchemas: the 3SAT construction builds well-formed,
// nonrecursive, concatenation-only schemas.
func TestReductionSchemas(t *testing.T) {
	f := reduction.Formula{Vars: 3, Clauses: []reduction.Clause{{1, -2, 3}, {-1, 2, -3}}}
	s1, s2, _, err := reduction.Schemas(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*dtd.DTD{s1, s2} {
		if d.IsRecursive() {
			t.Error("reduction schema is recursive")
		}
		for _, a := range d.Types {
			if k := d.Prods[a].Kind; k != dtd.KindConcat && k != dtd.KindEmpty {
				t.Errorf("type %q has %v production; reduction uses concatenations only", a, k)
			}
		}
	}
}

// TestReductionProperty is invariant 9: φ is satisfiable iff the exact
// solver finds an embedding between the reduction schemas.
func TestReductionProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randomFormula(r, 2+r.Intn(2), 2+r.Intn(2))
		s1, s2, att, err := reduction.Schemas(f)
		if err != nil {
			t.Logf("seed %d: schemas: %v", seed, err)
			return false
		}
		res, err := search.Find(s1, s2, att, search.Options{Heuristic: search.Exact})
		if err != nil {
			t.Logf("seed %d: find: %v", seed, err)
			return false
		}
		want := f.Satisfiable()
		got := res.Embedding != nil
		if want != got {
			t.Logf("seed %d: formula %v satisfiable=%v, embedding found=%v", seed, f, want, got)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func randomFormula(r *rand.Rand, vars, clauses int) reduction.Formula {
	f := reduction.Formula{Vars: vars}
	for i := 0; i < clauses; i++ {
		var c reduction.Clause
		// Short clauses make unsatisfiable instances likely, exercising
		// the exhaustion direction of the equivalence.
		width := 1 + r.Intn(3)
		for j := 0; j < width; j++ {
			v := 1 + r.Intn(vars)
			if r.Intn(2) == 0 {
				v = -v
			}
			c = append(c, reduction.Literal(v))
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// TestReductionUnsatisfiable pins the known-unsatisfiable instance used
// by experiment E7: no embedding may exist for it.
func TestReductionUnsatisfiable(t *testing.T) {
	unsat := reduction.Formula{Vars: 2, Clauses: []reduction.Clause{{1, 2}, {1, -2}, {-1, 2}, {-1, -2}}}
	if unsat.Satisfiable() {
		t.Fatal("formula should be unsatisfiable")
	}
	s1, s2, att, err := reduction.Schemas(unsat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Find(s1, s2, att, search.Options{Heuristic: search.Exact})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding != nil {
		t.Fatalf("found an embedding for an unsatisfiable formula:\n%s", res.Embedding)
	}
	if !res.Exhausted {
		t.Error("exact search should report exhaustion")
	}
}

// TestNoisySearch: embeddings of a schema into its noisy copies are
// found across noise levels, and at zero noise with an accurate att the
// ground truth is recovered.
func TestNoisySearch(t *testing.T) {
	base := workload.OrdersDTD()
	r := rand.New(rand.NewSource(9))
	for _, level := range []float64{0, 0.2, 0.4} {
		nc := workload.Noise(base, workload.NoiseLevel(level), r)
		if err := nc.DTD.Check(); err != nil {
			t.Fatalf("noisy copy invalid at level %v: %v", level, err)
		}
		att := match.Synthetic(base, nc.DTD, nc.Truth,
			match.SyntheticOptions{Accuracy: 1, Ambiguity: 2}, r)
		res, err := search.Find(base, nc.DTD, att, search.Options{Heuristic: search.Random, Seed: 4, MaxRestarts: 40})
		if err != nil {
			t.Fatal(err)
		}
		if res.Embedding == nil {
			t.Fatalf("level %v: no embedding found (steps=%d)", level, res.Steps)
		}
		if level == 0 {
			correct := 0
			for a, b := range res.Embedding.Lambda {
				if nc.Truth[a] == b {
					correct++
				}
			}
			if correct < len(nc.Truth) {
				t.Logf("level 0: %d/%d ground-truth matches (a different valid embedding is acceptable)", correct, len(nc.Truth))
			}
		}
	}
}

// TestFoundEmbeddingsAlwaysValid is invariant 7: every embedding any
// heuristic returns passes the independent checker and round-trips
// instances. Exercised over random synthetic schema pairs.
func TestFoundEmbeddingsAlwaysValid(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := workload.MustSyntheticDTD(r, 8+r.Intn(8))
		nc := workload.Noise(base, workload.NoiseLevel(0.3), r)
		att := match.Synthetic(base, nc.DTD, nc.Truth,
			match.SyntheticOptions{Accuracy: 0.8, Ambiguity: 2}, r)
		res, err := search.Find(base, nc.DTD, att, search.Options{Heuristic: search.Random, Seed: seed, MaxRestarts: 15})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.Embedding == nil {
			return true // not finding one is allowed; returning junk is not
		}
		if err := res.Embedding.Validate(att); err != nil {
			t.Logf("seed %d: invalid embedding returned: %v", seed, err)
			return false
		}
		src := xmltree.MustGenerate(base, r, xmltree.GenOptions{})
		out, err := res.Embedding.Apply(src)
		if err != nil {
			t.Logf("seed %d: apply: %v", seed, err)
			return false
		}
		if err := out.Tree.Validate(nc.DTD); err != nil {
			t.Logf("seed %d: type safety: %v", seed, err)
			return false
		}
		back, err := res.Embedding.Invert(out.Tree)
		if err != nil {
			t.Logf("seed %d: invert: %v", seed, err)
			return false
		}
		if !xmltree.Equal(src, back) {
			t.Logf("seed %d: round trip: %s", seed, xmltree.Diff(src, back))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestSmallModelBounds is invariant 8: paths of found embeddings
// respect the Theorem 4.10 length bounds.
func TestSmallModelBounds(t *testing.T) {
	school := workload.SchoolDTD()
	src := workload.ClassDTD()
	res, err := search.Find(src, school, nil, search.Options{Heuristic: search.Random, Seed: 3, MaxRestarts: 60})
	if err != nil || res.Embedding == nil {
		t.Fatalf("setup: %v", err)
	}
	e2 := school.Size()
	for ref, p := range res.Embedding.Paths {
		prod := src.Prods[ref.Parent]
		k := len(prod.Children)
		var bound int
		switch prod.Kind {
		case dtd.KindConcat:
			bound = k * e2
		case dtd.KindDisj:
			bound = (k + 1) * e2
		case dtd.KindStar:
			bound = 2 * e2
		default:
			bound = e2
		}
		if p.Len() > bound {
			t.Errorf("path%s length %d exceeds Theorem 4.10 bound %d", ref, p.Len(), bound)
		}
	}
}

// TestAttRestrictsSearch: zeroing a required pair makes the search fail.
func TestAttRestrictsSearch(t *testing.T) {
	d := workload.StudentDTD()
	att := embedding.UniformSim(d, d)
	for _, b := range d.Types {
		att.Set("ssn", b, 0)
	}
	res, err := search.Find(d, d, att, search.Options{Heuristic: search.Exact})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding != nil {
		t.Error("found an embedding although ssn has no admissible target")
	}
}

// TestParseHeuristic: one table of names serves every caller; names
// match case-insensitively and every String value parses back.
func TestParseHeuristic(t *testing.T) {
	for _, tc := range []struct {
		name string
		want search.Heuristic
		ok   bool
	}{
		{"random", search.Random, true},
		{"Random", search.Random, true},
		{"quality", search.QualityOrdered, true},
		{"QUALITY", search.QualityOrdered, true},
		{"qualityordered", search.QualityOrdered, true},
		{"QualityOrdered", search.QualityOrdered, true},
		{"indepset", search.IndepSet, true},
		{"IndepSet", search.IndepSet, true},
		{"exact", search.Exact, true},
		{"Exact", search.Exact, true},
		{"", 0, false},
		{" random", 0, false},
		{"greedy", 0, false},
		{"Heuristic(9)", 0, false},
	} {
		got, err := search.ParseHeuristic(tc.name)
		if (err == nil) != tc.ok {
			t.Errorf("ParseHeuristic(%q) error = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseHeuristic(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
	for _, h := range []search.Heuristic{search.Random, search.QualityOrdered, search.IndepSet, search.Exact} {
		if got, err := search.ParseHeuristic(h.String()); err != nil || got != h {
			t.Errorf("ParseHeuristic(%q) = %v, %v; want %v", h.String(), got, err, h)
		}
	}
}
