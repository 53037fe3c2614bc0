package search

import (
	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/xpath"
)

// localEdge pairs a source edge with its candidate target paths.
type localEdge struct {
	ref   embedding.EdgeRef
	cands []candidate
}

// localResult is a localPaths answer as memoized by searcher.local:
// one target path per source edge, nil when no selection exists (a
// cacheable answer in its own right).
type localResult = map[embedding.EdgeRef]xpath.Path

// localPaths solves the prefix-free path problem for one source
// production (§5.1/5.2): given λ(a) and λ for a's children, pick one
// candidate path per edge such that sibling paths are mutually prefix
// free (and, for disjunctions, diverge at OR edges). It returns nil
// when no selection exists within the enumerated candidates.
//
// The result is a pure function of (a, λ(a), λ(a's children)) given
// fixed enumeration bounds; callers memoize it through
// searcher.localPathsFor and must treat the returned map as read-only.
// A non-nil rec (Options.Explain) receives the failure's rejection
// class when no selection exists.
func localPaths(e *enumerator, src *dtd.DTD, a string, lam map[string]string, rec *attemptRec) localResult {
	prod := src.Prods[a]
	from := lam[a]
	switch prod.Kind {
	case dtd.KindEmpty:
		return localResult{}

	case dtd.KindStr:
		cands := e.strCandidates(from)
		if len(cands) == 0 {
			rec.fail(failPathEmpty)
			return nil
		}
		return localResult{
			embedding.Ref(a, embedding.StrChild): cands[0].path,
		}

	case dtd.KindStar:
		b := prod.Children[0]
		cands := e.paths(from, lam[b], flavorSTAR)
		if len(cands) == 0 {
			rec.fail(failPathEmpty)
			return nil
		}
		return localResult{
			embedding.Ref(a, b): cands[0].path,
		}

	case dtd.KindConcat, dtd.KindDisj:
		fl := edgeFlavor(prod.Kind)
		edges := make([]localEdge, 0, len(prod.Children))
		occ := map[string]int{}
		for _, b := range prod.Children {
			occ[b]++
			cands := e.paths(from, lam[b], fl)
			if len(cands) == 0 {
				rec.fail(failPathEmpty)
				return nil // an edge with no candidates dooms the selection
			}
			edges = append(edges, localEdge{
				ref:   embedding.EdgeRef{Parent: a, Child: b, Occ: occ[b]},
				cands: cands,
			})
		}
		// Fewest candidates first: fail fast, branch late.
		for i := 1; i < len(edges); i++ {
			for j := i; j > 0 && len(edges[j].cands) < len(edges[j-1].cands); j-- {
				edges[j], edges[j-1] = edges[j-1], edges[j]
			}
		}
		compat := pairCompat(edges, prod.Kind == dtd.KindDisj, &e.rejects)
		chosen := make([]int, len(edges))
		if !pickCompatible(edges, compat, chosen, 0, e.stop) {
			rec.fail(failLocalSelect)
			return nil
		}
		out := make(localResult, len(edges))
		for i, ed := range edges {
			out[ed.ref] = ed.cands[chosen[i]].path
		}
		return out
	}
	return nil
}

// bitset is a fixed-size bit vector used for the pairwise candidate
// compatibility tables.
type bitset []uint64

func (b bitset) set(i int)       { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// pairCompat precomputes, for every edge pair j < i, a bitset whose bit
// cj*len(cands_i)+ci records whether candidate cj of edge j and
// candidate ci of edge i satisfy the prefix-free (and OR-divergence)
// condition. The backtracking then tests compatibility in O(1) per pair
// instead of re-walking the candidate slots at every node. rejects
// tallies the incompatible pairs (the xse_search_prefix_rejections_total
// metric) in a plain int the caller flushes at search end.
func pairCompat(edges []localEdge, disj bool, rejects *int) []bitset {
	n := len(edges)
	if n < 2 {
		return nil
	}
	compat := make([]bitset, n*n)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			ci := edges[i].cands
			bs := make(bitset, (len(edges[j].cands)*len(ci)+63)/64)
			for x, a := range edges[j].cands {
				for y, b := range ci {
					if compatible(a, b, disj) {
						bs.set(x*len(ci) + y)
					} else {
						*rejects++
					}
				}
			}
			compat[j*n+i] = bs
		}
	}
	return compat
}

// pickCompatible backtracks over candidate indices enforcing pairwise
// compatibility via the precomputed bitsets. A non-nil stop aborts the
// backtracking (reported as "no selection"; the caller distinguishes
// cancellation separately).
func pickCompatible(edges []localEdge, compat []bitset, chosen []int, i int, stop func() bool) bool {
	n := len(edges)
	if i == n {
		return true
	}
	if stop != nil && stop() {
		return false
	}
	ci := len(edges[i].cands)
	for c := 0; c < ci; c++ {
		ok := true
		for j := 0; j < i; j++ {
			if !compat[j*n+i].test(chosen[j]*ci + c) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		chosen[i] = c
		if pickCompatible(edges, compat, chosen, i+1, stop) {
			return true
		}
	}
	return false
}

// compatible checks the prefix-free condition between two sibling
// candidates, and OR-edge divergence for disjunction siblings.
func compatible(a, b candidate, disj bool) bool {
	n := len(a.slots)
	if len(b.slots) < n {
		n = len(b.slots)
	}
	for i := 0; i < n; i++ {
		if a.slots[i] != b.slots[i] {
			if disj {
				return a.kinds[i] == dtd.EdgeOR
			}
			return true
		}
	}
	return false // one is a prefix of the other (or equal)
}
