package search

import "repro/internal/dtd"

// Viability pruning: before the search commits to λ(c) = t it asks
// whether that choice can survive below c at all. The test runs on a
// numbered view of both schemas (schemaIndex), so its inner loops are
// slice and bitset operations rather than string-keyed map lookups.

// schemaIndex numbers the source and target types of one search. It is
// built once per FindCtx and read-only afterwards.
type schemaIndex struct {
	src      map[string]int32
	srcProds []indexedProd
	// tgt is the numbered target the enumerators walk too.
	tgt *targetTable
	// choices[a] lists the λ candidates of source type a in att order
	// (see candidateTable).
	choices [][]choice
}

// indexedProd is a production with its distinct children numbered.
type indexedProd struct {
	kind dtd.Kind
	kids []int32
}

func numberTypes(d *dtd.DTD) (map[string]int32, []indexedProd) {
	index := make(map[string]int32, len(d.Types))
	for i, a := range d.Types {
		index[a] = int32(i)
	}
	edges := 0
	for _, p := range d.Prods {
		edges += len(p.Children)
	}
	// One backing array holds every production's children.
	kids := make([]int32, 0, edges)
	prods := make([]indexedProd, len(d.Types))
	for i, a := range d.Types {
		prod := d.Prods[a]
		start := len(kids)
		for j, c := range prod.Children {
			if !prodHasSelf(prod.Children[:j], c) {
				kids = append(kids, index[c])
			}
		}
		prods[i] = indexedProd{kind: prod.Kind, kids: kids[start:len(kids):len(kids)]}
	}
	return index, prods
}

// newSchemaIndex numbers the source schema and pairs it with the
// target table; candidateTable fills choices.
func newSchemaIndex(src *dtd.DTD, tgt *targetTable) *schemaIndex {
	ix := &schemaIndex{tgt: tgt, choices: make([][]choice, len(src.Types))}
	ix.src, ix.srcProds = numberTypes(src)
	return ix
}

// Viability verdicts; the zero value is unknown.
const (
	viaPending uint8 = iota + 1 // being evaluated further up the stack
	viaYes
	viaNo
)

// choice is one candidate λ(c) by name and target index.
type choice struct {
	name string
	t    int32
}

// choiceKey names the λ(c) choices under λ(parent) = from along an edge
// of flavor fl (type indices).
type choiceKey struct {
	from, c int32
	fl      flavor
}

// viability is a searcher's memo of reach sets, verdicts and filtered
// candidate lists. It spans the searcher's restarts, like the
// localPaths memo.
type viability struct {
	ix *schemaIndex
	// reach[fl][t] is the set of target types at which some path of
	// flavor fl from t ends (nil until asked).
	reach [flavorSTR + 1][]bitset
	// verdict[a][t] is the verdict on λ(a) = t; rows are allocated on
	// first use.
	verdict [][]uint8
	// choices and owners hold the lists choices and viableCandidates
	// build (owners[a] is nil until asked).
	choices map[choiceKey][]choice
	owners  [][]choice
	// seen and queue are reachable's scratch; rows and words are slabs
	// the verdict rows and reach sets are cut from.
	seen  []uint8
	queue []reachState
	rows  []uint8
	words []uint64
}

// carve returns a zeroed slice of n elements cut from *slab, which it
// refills sixteen slices at a time, so memo entries allocate in bulk.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		*slab = make([]T, 16*n)
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// reachState is a BFS state of reachable: a target type and the flags
// of the path that reached it.
type reachState struct {
	at    int32
	flags uint8
}

func newViability(ix *schemaIndex) *viability {
	v := &viability{
		ix:      ix,
		verdict: make([][]uint8, len(ix.srcProds)),
		choices: make(map[choiceKey][]choice),
		owners:  make([][]choice, len(ix.srcProds)),
	}
	for fl := range v.reach {
		v.reach[fl] = make([]bitset, len(ix.tgt.types))
	}
	return v
}

// reachable returns the target types at which some path of flavor fl
// from target type t ends (for flavorSTR: the str-typed ones). It takes
// the enumerator's moves but ignores its length, pin and expansion
// bounds, so it over-approximates the types enumerator.paths finds
// candidates for: every enumerated candidate is a path of the BFS
// below, which tracks the same path flags over at most eight states
// per type.
func (v *viability) reachable(t int32, fl flavor) bitset {
	if r := v.reach[fl][t]; r != nil {
		return r
	}
	types, moves := v.ix.tgt.types, v.ix.tgt.moves
	out := bitset(carve(&v.words, (len(types)+63)/64))
	if v.seen == nil {
		v.seen = make([]uint8, len(types))
	}
	seen := v.seen
	clear(seen)
	seen[t] = 1
	queue := append(v.queue[:0], reachState{at: t})
	push := func(at int32, flags uint8) {
		// Judged on every arrival, so a cycle back to t still counts.
		if endOK(fl, flags&flagOR != 0, flags&flagIt != 0, flags&flagSt != 0, types[at].str) {
			out.set(int(at))
		}
		if bit := uint8(1) << flags; seen[at]&bit == 0 {
			seen[at] |= bit
			queue = append(queue, reachState{at: at, flags: flags})
		}
	}
	for head := 0; head < len(queue); head++ {
		st := queue[head]
		ty := types[st.at]
		if !ty.declared {
			continue
		}
		switch ty.kind {
		case dtd.KindConcat:
			for _, m := range moves[ty.lo:ty.hi] {
				push(m.to, st.flags)
			}
		case dtd.KindDisj:
			if fl == flavorOR {
				for _, m := range moves[ty.lo:ty.hi] {
					push(m.to, st.flags|flagOR)
				}
			}
		case dtd.KindStar:
			if fl != flavorOR {
				// Every move of a star, pinned or the iterator, reaches
				// its one child.
				c := moves[ty.lo].to
				push(c, st.flags|flagSt)
				if fl == flavorSTAR && st.flags&flagIt == 0 {
					push(c, st.flags|flagIt|flagSt)
				}
			}
		}
	}
	v.queue = queue
	v.reach[fl][t] = out
	return out
}

// edgeFlavor is the path type a production's edges require.
func edgeFlavor(k dtd.Kind) flavor {
	switch k {
	case dtd.KindDisj:
		return flavorOR
	case dtd.KindStar:
		return flavorSTAR
	case dtd.KindStr:
		return flavorSTR
	}
	return flavorAND
}

// viable is an on-demand arc-consistency test: it reports whether
// λ(a) = t can survive below a (source and target type indices). It
// holds when every child c of a's production has a candidate t′ that a
// path of the production's flavor reaches from t with viable(c, t′),
// and, for a str production, when t has a text path.
//
// A false verdict is sound: every λ the search could complete with
// λ(a) = t would supply such a t′ for each child, because the reach
// sets over-approximate the enumerated candidate paths. A pair met
// again while still being evaluated (a recursive source) counts as
// viable, which can only weaken pruning. A verdict computed after
// cancellation latched is never stored.
func (s *searcher) viable(a, t int32) bool {
	v := s.via
	row := v.verdict[a]
	if row == nil {
		row = carve(&v.rows, len(v.ix.tgt.types))
		v.verdict[a] = row
	}
	switch row[t] {
	case viaPending, viaYes:
		return true
	case viaNo:
		return false
	}
	row[t] = viaPending
	ok := s.viableBelow(a, t)
	switch {
	case s.stopped:
		row[t] = 0
	case ok:
		row[t] = viaYes
	default:
		row[t] = viaNo
	}
	return ok
}

func (s *searcher) viableBelow(a, t int32) bool {
	ix := s.via.ix
	p := ix.srcProds[a]
	fl := edgeFlavor(p.kind)
	if p.kind == dtd.KindStr {
		if ix.tgt.types[t].str {
			return true // the text-only path
		}
		for _, w := range s.via.reachable(t, fl) {
			if w != 0 {
				return true
			}
		}
		return false
	}
	if len(p.kids) == 0 {
		return true
	}
	reach := s.via.reachable(t, fl)
	for _, c := range p.kids {
		if s.canceled() {
			return false
		}
		supported := false
		for _, tc := range ix.choices[c] {
			if reach.test(int(tc.t)) && s.viable(c, tc.t) {
				supported = true
				break
			}
		}
		if !supported {
			return false
		}
	}
	return true
}

// viableNamed is viable for named types.
func (s *searcher) viableNamed(a, t string) bool {
	return s.viable(s.via.ix.src[a], s.via.ix.tgt.index[t])
}

// viableCandidates returns a's λ candidates that are viable, in the
// heuristic's order (see ordered). The filtered lists are memoized per
// source type; the candidates a list drops count as path_empty
// rejections, an empty candidate list as lambda_empty, when the list
// is built.
func (s *searcher) viableCandidates(a string, shuffle bool) []choice {
	ai := s.via.ix.src[a]
	list := s.via.owners[ai]
	if list == nil {
		all := s.via.ix.choices[ai]
		list = keep(all, func(b choice) bool { return s.viable(ai, b.t) })
		if s.stopped {
			return nil
		}
		s.via.owners[ai] = list
		if s.rec != nil {
			if len(all) == 0 {
				s.rec.rej.LambdaEmpty++
			}
			s.rec.rej.PathEmpty += len(all) - len(list)
		}
	}
	return s.ordered(list, shuffle)
}

// choices returns c's index and the λ(c) candidates that some path of
// flavor fl reaches from target type from (an index), in the
// heuristic's order. The filtered lists are memoized per (from, c,
// fl); the candidates a list drops count as path_empty rejections, an
// empty candidate list as lambda_empty, when the list is built — like
// prefix_free, memoized replays do not re-count them.
func (s *searcher) choices(from int32, c string, fl flavor, shuffle bool) (int32, []choice) {
	ci := s.via.ix.src[c]
	key := choiceKey{from: from, c: ci, fl: fl}
	list, ok := s.via.choices[key]
	if !ok {
		all := s.via.ix.choices[ci]
		reach := s.via.reachable(from, fl)
		list = keep(all, func(b choice) bool { return reach.test(int(b.t)) })
		s.via.choices[key] = list
		if s.rec != nil {
			if len(all) == 0 {
				s.rec.rej.LambdaEmpty++
			}
			s.rec.rej.PathEmpty += len(all) - len(list)
		}
	}
	return ci, s.ordered(list, shuffle)
}

// keep returns the choices of all that pass, sharing all's backing
// array when every one does (the lists are read-only). The result is
// never nil.
func keep(all []choice, pass func(choice) bool) []choice {
	for i, b := range all {
		if pass(b) {
			continue
		}
		out := make([]choice, i, len(all)-1)
		copy(out, all[:i])
		for _, b := range all[i+1:] {
			if pass(b) {
				out = append(out, b)
			}
		}
		return out
	}
	if all == nil {
		return []choice{}
	}
	return all
}

// ordered returns list as is, or a shuffled copy.
func (s *searcher) ordered(list []choice, shuffle bool) []choice {
	if shuffle && len(list) > 1 {
		list = append([]choice(nil), list...)
		s.rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	}
	return list
}

// try reports whether λ(c) = b, one of choices, is worth trying under
// λ(parent) = from: b is viable for c and the edge has an enumerated
// candidate path — the cached query localPaths would issue anyway. A
// choice it skips counts as a path_empty rejection.
func (s *searcher) try(from string, ci int32, b choice, fl flavor) bool {
	if s.viable(ci, b.t) && s.hasPath(from, b.name, fl) {
		return true
	}
	if s.rec != nil {
		s.rec.rej.PathEmpty++
	}
	return false
}

// hasPath reports whether the edge from target type `from` to target
// type `to` has an enumerated candidate path of flavor fl, never
// flavorSTR (a str production has no child edges).
func (s *searcher) hasPath(from, to string, fl flavor) bool {
	return len(s.enum.paths(from, to, fl)) > 0
}
