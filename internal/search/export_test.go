package search

import (
	"context"
	"slices"

	"repro/internal/dtd"
	"repro/internal/embedding"
)

// Pruned builds a searcher exactly as FindCtx does and lists every λ
// choice of lam the viability pruning would reject: a source type a
// with λ(a) not viable, or a child c whose λ(c) is missing from the
// choices under its parent's λ or lacks a candidate path. A sound
// pruning lists none for the λ of any embedding the search can
// construct.
func Pruned(src, tgt *dtd.DTD, att *embedding.SimMatrix, opts Options, lam map[string]string) []string {
	s := newSearcher(context.Background(), src, tgt, att, opts.withDefaults())
	var out []string
	for _, a := range src.Types {
		if !s.viableNamed(a, lam[a]) {
			out = append(out, a)
		}
		prod := src.Prods[a]
		fl := edgeFlavor(prod.Kind)
		for _, c := range prod.Children {
			ci, list := s.choices(s.via.ix.tgt.index[lam[a]], c, fl, false)
			k := slices.IndexFunc(list, func(b choice) bool { return b.name == lam[c] })
			if k < 0 || !s.try(lam[a], ci, list[k], fl) {
				out = append(out, a+"/"+c)
			}
		}
	}
	return out
}
