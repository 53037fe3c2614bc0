package search

import (
	"repro/internal/dtd"
	"repro/internal/xpath"
)

// The reference path enumerator: a fresh bounded BFS per (from, to,
// flavor) query, sharing nothing between queries.
// TestEnumerateMatchesPerQueryBFS compares the enumerator against it.

// refState is one node of the BFS tree. States form a parent-pointer
// arena: each holds the single step that extends its parent, and the
// full path/slots/kinds slices are materialized only for accepted
// candidates (see refMaterialize) — extending a state allocates nothing.
type refState struct {
	at     string
	step   xpath.Step
	sl     slot
	kind   dtd.EdgeKind
	parent int32 // arena index; -1 for the root state
	sawOR  bool
	sawIt  bool // unpinned (iterator) star step present
	sawSt  bool // any star step present
	length int32
}

// refEnumerate runs the bounded BFS for one query. It reports whether
// the search was aborted by stop.
func (e *enumerator) refEnumerate(from, to string, fl flavor) ([]candidate, bool) {
	var out []candidate
	arena := make([]refState, 1, 64)
	arena[0] = refState{at: from, parent: -1}
	expansions := 0
	for head := 0; head < len(arena) && len(out) < e.maxCands && expansions < e.maxExpand; head++ {
		if e.stop != nil && e.stop() {
			return out, true
		}
		st := arena[head] // copy: appends below may grow the arena
		if int(st.length) >= e.maxLen {
			continue
		}
		prod, ok := e.tgt.Prods[st.at]
		if !ok {
			continue
		}
		expansions++
		// extend appends the child state reached by one step and, when
		// it satisfies the flavor at its endpoint, materializes it as a
		// candidate.
		extend := func(step xpath.Step, sl slot, kind dtd.EdgeKind, sawOR, sawIt bool) {
			next := refState{
				at:     step.Label,
				step:   step,
				sl:     sl,
				kind:   kind,
				parent: int32(head),
				sawOR:  st.sawOR || sawOR,
				sawIt:  st.sawIt || sawIt,
				sawSt:  st.sawSt || kind == dtd.EdgeSTAR,
				length: st.length + 1,
			}
			arena = append(arena, next)
			if len(out) < e.maxCands && e.refAccepts(next, to, fl) {
				out = append(out, e.refMaterialize(arena, int32(len(arena)-1), fl))
			}
		}
		switch prod.Kind {
		case dtd.KindStr:
			// Only flavorSTR may end here, handled on arrival.
			continue
		case dtd.KindEmpty:
			continue
		case dtd.KindConcat:
			occ := map[string]int{}
			for _, c := range prod.Children {
				occ[c]++
				pos := 0
				if prod.Occurrences(c) > 1 {
					pos = occ[c]
				}
				extend(xpath.Step{Label: c, Pos: pos}, slot{label: c, occ: occ[c]}, dtd.EdgeAND, false, false)
			}
		case dtd.KindDisj:
			if fl != flavorOR {
				continue // OR edges are only legal on OR paths
			}
			for _, c := range prod.Children {
				extend(xpath.Step{Label: c}, slot{label: c, occ: 1}, dtd.EdgeOR, true, false)
			}
		case dtd.KindStar:
			if fl == flavorOR {
				continue // STAR edges are illegal on OR paths
			}
			c := prod.Children[0]
			// Pinned positions (legal on any non-OR path).
			for p := 1; p <= e.maxPin; p++ {
				extend(xpath.Step{Label: c, Pos: p}, slot{label: c, occ: p}, dtd.EdgeSTAR, false, false)
			}
			// The unpinned iterator, once, for STAR paths.
			if fl == flavorSTAR && !st.sawIt {
				extend(xpath.Step{Label: c}, slot{label: c, occ: 0}, dtd.EdgeSTAR, false, true)
			}
		}
	}
	return out, false
}

// refAccepts reports whether the state satisfies the flavor at its
// endpoint.
func (e *enumerator) refAccepts(st refState, to string, fl flavor) bool {
	if fl == flavorSTR {
		prod, ok := e.tgt.Prods[st.at]
		return endOK(fl, st.sawOR, st.sawIt, st.sawSt, ok && prod.Kind == dtd.KindStr)
	}
	return st.at == to && endOK(fl, st.sawOR, st.sawIt, st.sawSt, false)
}

// refMaterialize walks the parent chain of the accepted state and builds
// the candidate's path, slots and kinds slices — the only per-candidate
// allocations of the enumeration.
func (e *enumerator) refMaterialize(arena []refState, idx int32, fl flavor) candidate {
	n := int(arena[idx].length)
	c := candidate{
		path:  xpath.Path{Steps: make([]xpath.Step, n)},
		slots: make([]slot, n),
		kinds: make([]dtd.EdgeKind, n),
	}
	for i := idx; i >= 0 && arena[i].parent >= 0; i = arena[i].parent {
		n--
		c.path.Steps[n] = arena[i].step
		c.slots[n] = arena[i].sl
		c.kinds[n] = arena[i].kind
	}
	if fl == flavorSTR {
		c.path.Text = true
	}
	return c
}
