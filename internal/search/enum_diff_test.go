package search

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dtd"
	"repro/internal/workload"
)

// TestEnumerateMatchesPerQueryBFS: answering a query from the shared,
// resumable (from, flavor) tree must give exactly what a fresh BFS
// bounded for that query alone gives — the same candidates in the
// same order — whatever queries grew the tree before, under tight
// length, candidate, expansion and pin bounds as well as the defaults,
// and when the enumerator drops its trees and rebuilds them.
func TestEnumerateMatchesPerQueryBFS(t *testing.T) {
	targets := []*dtd.DTD{
		dtd.MustNew("r",
			dtd.D("r", dtd.Concat("l", "d", "l")),
			dtd.D("l", dtd.Star("i")),
			dtd.D("i", dtd.Concat("v", "r2", "v")),
			dtd.D("d", dtd.Disj("v", "i", "l")),
			dtd.D("r2", dtd.Star("r")),
			dtd.D("v", dtd.Str())),
	}
	for _, nd := range workload.Corpus() {
		targets = append(targets, nd.DTD)
	}
	r := rand.New(rand.NewSource(11))
	for _, size := range []int{25, 40} {
		base := workload.MustSyntheticDTD(r, size)
		targets = append(targets, base, workload.Noise(base, workload.NoiseLevel(0.3), r).DTD)
	}
	type bounds struct{ maxLen, maxCands, maxExpand, maxPin int }
	for i, d := range targets {
		for _, b := range []bounds{
			{d.Size(), 24, 4096, 2},
			{d.Size(), 3, 40, 2},
			{4, 24, 4096, 1},
			{d.Size() + 2, 1, 300, 3},
		} {
			type query struct {
				from, to string
				fl       flavor
			}
			var qs []query
			for _, from := range d.Types {
				qs = append(qs, query{from, "", flavorSTR})
				for _, to := range d.Types {
					for _, fl := range []flavor{flavorAND, flavorOR, flavorSTAR} {
						qs = append(qs, query{from, to, fl})
					}
				}
			}
			r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
			e := newEnumerator(d, b.maxLen, b.maxCands, b.maxExpand, b.maxPin)
			if i%2 == 1 {
				e.keepStates = 50
			}
			ref := newEnumerator(d, b.maxLen, b.maxCands, b.maxExpand, b.maxPin)
			for _, q := range qs {
				got, _ := e.enumerate(q.from, q.to, q.fl)
				want, _ := ref.refEnumerate(q.from, q.to, q.fl)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("target %d (root %s), bounds %+v: %s -> %s flavor %d:\n got %v\nwant %v",
						i, d.Root, b, q.from, q.to, q.fl, candsStrings(got), candsStrings(want))
				}
			}
		}
	}
}
