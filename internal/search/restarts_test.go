package search_test

import (
	"testing"

	"repro/internal/dtd"
	"repro/internal/search"
	"repro/internal/workload"
)

// The two tests below keep the names they had when Random restarts ran
// on a worker pool; the restarts are sequential now and the tests check
// the same outcomes on the one restart loop.

// TestParallelRecursiveTarget: Random restarts on a recursive target
// that requires unfolding a cycle (the Figure 3(e) shape) reuse the
// memoized cyclic path queries across restarts, and the result must
// validate.
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
		Heuristic: search.Random, Seed: 2, MaxRestarts: 40,
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

// TestParallelSearchRace: Random restarts on an unsatisfiable pair
// (concat into disjunction) report impossibility, and a restart that
// explores its whole candidate space settles the search in restart 0
// instead of spending the other restarts.
func TestParallelSearchRace(t *testing.T) {
	scs := workload.Figure3()
	impossible := scs[0].Build() // concat into disjunction: no embedding
	res, err := search.Find(impossible.Source, impossible.Target, nil, search.Options{
		Heuristic: search.Random, Seed: 1, MaxRestarts: 30,
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
	if res.Restarts != 0 {
		t.Errorf("exhaustion took %d restarts, want restart 0", res.Restarts)
	}
}
