package search_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/dtd"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/workload"
)

// TestParallelSearch: parallel restarts find valid embeddings and agree
// with the sequential mode on impossibility.
func TestParallelSearch(t *testing.T) {
	src, tgt := workload.ClassDTD(), workload.SchoolDTD()
	res, err := search.Find(src, tgt, nil, search.Options{
		Heuristic: search.Random, Seed: 3, MaxRestarts: 60, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding == nil {
		t.Fatalf("parallel search found nothing (restarts=%d)", res.Restarts)
	}
	if err := res.Embedding.Validate(nil); err != nil {
		t.Fatalf("parallel result invalid: %v", err)
	}
}

// TestParallelFigure1Shared: 8 workers on the Figure 1 class→school
// pair, across several seeds. Meaningful mostly under -race — the
// workers share the candidate cache with per-key single-flight — and
// every winning embedding must pass the independent validity checker.
func TestParallelFigure1Shared(t *testing.T) {
	src, tgt := workload.ClassDTD(), workload.SchoolDTD()
	for seed := int64(0); seed < 4; seed++ {
		reg := obs.NewRegistry()
		res, err := search.Find(src, tgt, nil, search.Options{
			Heuristic: search.Random, Seed: seed, MaxRestarts: 60, Parallel: 8,
			Obs: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Embedding == nil {
			t.Fatalf("seed %d: no embedding (restarts=%d)", seed, res.Restarts)
		}
		if err := res.Embedding.Validate(nil); err != nil {
			t.Fatalf("seed %d: invalid embedding: %v", seed, err)
		}
		hits := reg.Counter("xse_search_path_cache_hits_total", "").Value()
		misses := reg.Counter("xse_search_path_cache_misses_total", "").Value()
		if hits+misses == 0 {
			t.Errorf("seed %d: no path queries counted", seed)
		}
	}
}

// TestParallelRecursiveTarget: a recursive target that requires
// unfolding a cycle (the Figure 3(e) shape), hammered with 8 workers —
// the shared cache must serve the cyclic BFS queries correctly and the
// result must validate.
func TestParallelRecursiveTarget(t *testing.T) {
	src := dtd.MustNew("A",
		dtd.D("A", dtd.Concat("B", "C")),
		dtd.D("B", dtd.Empty()),
		dtd.D("C", dtd.Empty()))
	tgt := dtd.MustNew("A1",
		dtd.D("A1", dtd.Concat("B1")),
		dtd.D("B1", dtd.Concat("C1", "As")),
		dtd.D("C1", dtd.Empty()),
		dtd.D("As", dtd.Star("A1")))
	res, err := search.Find(src, tgt, nil, search.Options{
		Heuristic: search.Random, Seed: 2, MaxRestarts: 40, Parallel: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding == nil {
		t.Fatalf("no embedding on the recursive target (restarts=%d)", res.Restarts)
	}
	if err := res.Embedding.Validate(nil); err != nil {
		t.Fatalf("invalid embedding: %v", err)
	}
}

// TestParallelSearchRace is meaningful mostly under -race: hammer the
// worker pool with an unsatisfiable pair.
func TestParallelSearchRace(t *testing.T) {
	scs := workload.Figure3()
	impossible := scs[0].Build() // concat into disjunction: no embedding
	res, err := search.Find(impossible.Source, impossible.Target, nil, search.Options{
		Heuristic: search.Random, Seed: 1, MaxRestarts: 30, Parallel: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding != nil {
		t.Fatal("found an embedding where none exists")
	}
	if !res.Exhausted {
		t.Error("impossibility not reported")
	}
}

// TestParallelCorpusRandom: 8 Random workers on every corpus pair. The
// workers share the candidate-path and reach caches but each keeps its
// own localPaths and viability memos; `make race` runs this test
// -count=10 under the race detector, which would report any memo state
// shared between workers. Every run must return a valid embedding.
func TestParallelCorpusRandom(t *testing.T) {
	for _, p := range corpus.MustPairs() {
		att := match.Lexical(p.Source, p.Target, 0)
		res, err := search.Find(p.Source, p.Target, att, search.Options{
			Heuristic: search.Random, Seed: 1, MaxRestarts: 200, Parallel: 8, Obs: obs.Nop(),
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if res.Embedding == nil {
			t.Fatalf("%s: no embedding (restarts=%d)", p.Name, res.Restarts)
		}
		if err := res.Embedding.Validate(att); err != nil {
			t.Fatalf("%s: invalid embedding: %v", p.Name, err)
		}
	}
}
