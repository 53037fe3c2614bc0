package search_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/match"
	"repro/internal/search"
	"repro/internal/workload"
)

// qualityRuns renders the QualityOrdered searches pinned in
// testdata/quality_ordered.golden: the corpus pairs and rename-free
// NoiseLevel(1) copies of their sources under lexical att at
// thresholds 0 and 0.5 (the corpus runner's and /v1/embed's defaults),
// and synthetic pairs of 25–160 types under the E3 att. Only the
// embeddings are rendered — step and restart counts are free to fall.
func qualityRuns(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	find := func(name string, src, tgt *dtd.DTD, att *embedding.SimMatrix, opts search.Options) {
		opts.Heuristic = search.QualityOrdered
		res, err := search.Find(src, tgt, att, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "=== %s ===\n", name)
		if res.Embedding == nil {
			b.WriteString("no embedding\n")
			return
		}
		b.WriteString(res.Embedding.Marshal())
	}
	thresholds := []float64{0, 0.5}
	for _, p := range corpus.MustPairs() {
		for _, th := range thresholds {
			find(fmt.Sprintf("corpus %s att %.1f", p.Name, th), p.Source, p.Target,
				match.Lexical(p.Source, p.Target, th), search.Options{Seed: 1})
		}
		r := rand.New(rand.NewSource(int64(len(p.Name))))
		noise := workload.NoiseLevel(1)
		noise.RenameFrac = 0
		for k := 0; k < 3; k++ {
			nc := workload.Noise(p.Source, noise, r)
			for _, th := range thresholds {
				find(fmt.Sprintf("noisy %s #%d att %.1f", p.Name, k, th), p.Source, nc.DTD,
					match.Lexical(p.Source, nc.DTD, th), search.Options{Seed: 1, MaxRestarts: 40})
			}
		}
	}
	for _, size := range []int{25, 50, 100, 160} {
		r := rand.New(rand.NewSource(int64(size)))
		for trial := 0; trial < 3; trial++ {
			base := workload.MustSyntheticDTD(r, size)
			nc := workload.Noise(base, workload.NoiseLevel(0.2), r)
			att := match.Synthetic(base, nc.DTD, nc.Truth,
				match.SyntheticOptions{Accuracy: 1, Ambiguity: 2}, r)
			find(fmt.Sprintf("synthetic %d #%d", size, trial), base, nc.DTD, att,
				search.Options{Seed: r.Int63n(1 << 30), MaxRestarts: 15})
		}
	}
	return b.String()
}

// TestQualityOrderedGolden pins QualityOrdered's embeddings byte for
// byte. QualityOrdered draws no random numbers, so any pruning of its
// depth-first search that removes only subtrees holding no reachable
// embedding must leave every result unchanged. The golden file was
// generated before viability pruning (viable.go) was added.
func TestQualityOrderedGolden(t *testing.T) {
	got := qualityRuns(t)
	path := filepath.Join("testdata", "quality_ordered.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("QualityOrdered output diverged from %s:\ngot:\n%s", path, got)
	}
}
