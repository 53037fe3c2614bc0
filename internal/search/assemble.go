package search

import (
	"sort"

	"repro/internal/embedding"
	"repro/internal/xpath"
)

// localOption is one local mapping (§5.1): a λ assignment for one
// source type and its children, with valid local paths, weighted by the
// summed att scores.
type localOption struct {
	owner  string
	lambda map[string]string
	paths  map[embedding.EdgeRef]xpath.Path
	weight float64
}

// conflicts reports whether two local mappings disagree on a shared
// type.
func (o *localOption) conflicts(assign map[string]string) bool {
	for a, b := range o.lambda {
		if cur, ok := assign[a]; ok && cur != b {
			return true
		}
	}
	return false
}

// assembleIndepSet implements the independent-set style assembly: it
// enumerates up to LocalOptions local mappings per source production
// (randomly sampling λ choices), then greedily selects one option per
// production — fewest-options first, highest weight first — rejecting
// options that conflict with the partial assignment. A maximal
// consistent selection covering every production is a valid embedding.
func (s *searcher) assembleIndepSet() *embedding.Embedding {
	order := s.order()
	options := make([][]*localOption, len(order))
	for i, a := range order {
		options[i] = s.localOptions(a)
		if len(options[i]) == 0 {
			if s.rec != nil {
				s.rec.outcome = OutcomeNoOptions
			}
			return nil
		}
	}
	// Productions with the fewest options are the most constrained;
	// assign them first.
	idx := make([]int, len(order))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return len(options[idx[x]]) < len(options[idx[y]]) })

	assign := map[string]string{s.src.Root: s.tgt.Root}
	chosen := make([]*localOption, len(order))
	for _, i := range idx {
		if s.canceled() {
			return nil
		}
		s.steps++
		var best *localOption
		for _, o := range options[i] {
			if o.conflicts(assign) {
				if s.rec != nil {
					s.rec.rej.Conflict++
				}
				continue
			}
			if best == nil || o.weight > best.weight {
				best = o
			}
		}
		if best == nil {
			if s.rec != nil {
				s.rec.outcome = OutcomeConflict
			}
			return nil
		}
		chosen[i] = best
		for a, b := range best.lambda {
			assign[a] = b
		}
		if s.rec != nil {
			s.rec.noteDepth(len(assign))
		}
	}
	emb := embedding.New(s.src, s.tgt)
	for a, b := range assign {
		emb.MapType(a, b)
	}
	for _, o := range chosen {
		for ref, p := range o.paths {
			emb.Paths[ref] = p
		}
	}
	if emb.Validate(s.att) != nil {
		if s.rec != nil {
			s.rec.outcome = OutcomeInvalid
		}
		return nil
	}
	return emb
}

// localOptions samples local mappings for the production of a.
func (s *searcher) localOptions(a string) []*localOption {
	prod := s.src.Prods[a]
	var ownCands []choice
	if a != s.src.Root {
		ownCands = s.viableCandidates(a, true)
	} else if s.viableNamed(a, s.tgt.Root) {
		ownCands = []choice{{name: s.tgt.Root, t: s.via.ix.tgt.index[s.tgt.Root]}}
	} else if s.rec != nil {
		s.rec.rej.PathEmpty++
	}
	fl := edgeFlavor(prod.Kind)
	// Distinct child types needing λ; a recursive type's own λ is the
	// owner's.
	var kids []string
	for i, c := range prod.Children {
		if c != a && !prodHasSelf(prod.Children[:i], c) {
			kids = append(kids, c)
		}
	}
	// The options are spread over the owner's viable λs: options that
	// all share one owner λ leave the productions that own a's children
	// nothing consistent to choose from.
	perOwner := max(1, s.opts.LocalOptions/max(1, len(ownCands)))
	var out []*localOption
	for _, own := range ownCands {
		if len(out) >= s.opts.LocalOptions {
			break
		}
		la := own.name
		lam := map[string]string{a: la}
		budget, limit := s.opts.LocalOptions, len(out)+perOwner
		var rec func(j int)
		rec = func(j int) {
			if len(out) >= limit || budget <= 0 || s.canceled() {
				return
			}
			if j == len(kids) {
				budget--
				local := s.localPathsFor(a, lam)
				if local == nil {
					return
				}
				opt := &localOption{
					owner:  a,
					lambda: make(map[string]string, len(lam)),
					paths:  local,
				}
				for k, v := range lam {
					opt.lambda[k] = v
					opt.weight += s.att.Get(k, v)
				}
				out = append(out, opt)
				return
			}
			ci, list := s.choices(own.t, kids[j], fl, true)
			for _, b := range list {
				if !s.try(la, ci, b, fl) {
					continue
				}
				lam[kids[j]] = b.name
				rec(j + 1)
				delete(lam, kids[j])
				if len(out) >= limit || budget <= 0 {
					return
				}
			}
		}
		rec(0)
	}
	return out
}

func prodHasSelf(children []string, a string) bool {
	for _, c := range children {
		if c == a {
			return true
		}
	}
	return false
}
