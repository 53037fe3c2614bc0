package search_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/match"
	"repro/internal/search"
	"repro/internal/workload"
)

// TestViabilityKeepsGroundTruth is the soundness witness for the
// viability pruning: over noisy copies with a proven ground-truth
// embedding (workload.TruthEmbedding validates it), the pruning must
// never reject λ(a) = truth[a] for any source type a, whether the att
// matrix is synthetic around the truth or uniform, and under the
// heuristics' and the exact solver's enumeration bounds alike.
func TestViabilityKeepsGroundTruth(t *testing.T) {
	type pair struct {
		name string
		src  *dtd.DTD
		nc   *workload.NoisyCopy
		r    *rand.Rand
	}
	var pairs []pair
	// A recursive source exercises the verdicts met while still pending.
	parts := dtd.MustNew("part",
		dtd.D("part", dtd.Concat("name", "subs")),
		dtd.D("subs", dtd.Star("part")),
		dtd.D("name", dtd.Str()))
	sources := []workload.NamedDTD{{Name: "parts", DTD: parts}}
	for _, p := range corpus.MustPairs() {
		sources = append(sources, workload.NamedDTD{Name: p.Name, DTD: p.Source})
	}
	for _, src := range sources {
		for _, level := range []float64{0.1, 0.25, 0.5, 1} {
			for seed := int64(1); seed <= 3; seed++ {
				r := rand.New(rand.NewSource(seed))
				pairs = append(pairs, pair{fmt.Sprintf("%s/level %.2f/seed %d", src.Name, level, seed),
					src.DTD, workload.Noise(src.DTD, workload.NoiseLevel(level), r), r})
			}
		}
	}
	for _, size := range []int{25, 50, 100, 160} {
		r := rand.New(rand.NewSource(int64(size)))
		for trial := 0; trial < 3; trial++ {
			base := workload.MustSyntheticDTD(r, size)
			pairs = append(pairs, pair{fmt.Sprintf("synthetic %d #%d", size, trial),
				base, workload.Noise(base, workload.NoiseLevel(0.2), r), r})
		}
	}
	for _, p := range pairs {
		if _, err := workload.TruthEmbedding(p.src, p.nc); err != nil {
			t.Fatalf("%s: ground truth does not embed: %v", p.name, err)
		}
		atts := map[string]*embedding.SimMatrix{
			"synthetic": match.Synthetic(p.src, p.nc.DTD, p.nc.Truth,
				match.SyntheticOptions{Accuracy: 1, Ambiguity: 3}, p.r),
			"uniform": embedding.UniformSim(p.src, p.nc.DTD),
		}
		for attName, att := range atts {
			for _, h := range []search.Heuristic{search.Random, search.Exact} {
				if bad := search.Pruned(p.src, p.nc.DTD, att, search.Options{Heuristic: h}, p.nc.Truth); len(bad) > 0 {
					t.Errorf("%s, %s att, %s bounds: ground-truth λ pruned for %v", p.name, attName, h, bad)
				}
			}
		}
	}
}
