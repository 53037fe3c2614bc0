// Package search computes schema embeddings (§5): given two DTDs and a
// similarity matrix, it finds a valid embedding σ : S1 → S2 when one
// exists within its search bounds. The Schema-Embedding problem is
// NP-complete (Theorem 5.1), so the package provides heuristics —
// Random, Quality-Ordered and Independent-Set assembly of local
// embeddings, per the VLDB'05 companion — together with an exhaustive
// solver used as a test oracle on small schemas.
//
// Local embeddings are found by solving the prefix-free path problem:
// candidate target paths per source edge are enumerated shortest-first
// (respecting the path type condition and the Theorem 4.10 length
// bounds), and a backtracking selection picks mutually prefix-free
// candidates.
package search

import (
	"repro/internal/dtd"
	"repro/internal/xpath"
)

// flavor is the required path type per the source production kind.
type flavor uint8

const (
	flavorAND flavor = iota
	flavorOR
	flavorSTAR
	flavorSTR
)

// slot identifies a step for prefix-freedom comparisons, mirroring the
// canonical slots of package embedding (occ 0 = star iterator).
type slot struct {
	label string
	occ   int
}

// candidate is one enumerated target path with its canonical slots and
// the kinds of edges it crosses.
type candidate struct {
	path  xpath.Path
	slots []slot
	kinds []dtd.EdgeKind
}

// enumerator answers candidate-path queries against the target schema.
// One enumerator serves every restart of a search, and its memo answers
// the same (from, to, flavor) query at most once per search. Behind
// that memo it keeps one resumable BFS per (from, flavor): the BFS a
// query runs does not depend on the type it asks for, only the states
// it accepts do, so the queries from one type share the states
// expanded so far instead of each expanding the same path tree again.
type enumerator struct {
	tgt *dtd.DTD
	tab *targetTable
	// maxLen bounds path length; maxCands bounds candidates per query;
	// maxExpand bounds the BFS expansions of a (from, flavor) tree, and
	// so of every query it answers; maxPin bounds the positions tried
	// when pinning a star step on an AND path.
	maxLen    int
	maxCands  int
	maxExpand int
	maxPin    int

	// stop, when set, is polled during BFS so a canceled search
	// abandons enumeration promptly.
	stop func() bool

	// memo holds the answers of completed queries; an enumeration
	// aborted by stop is returned but never stored, so every entry is
	// a complete, deterministic answer.
	memo map[enumKey][]candidate
	// trees holds the BFS trees; keepStates bounds the states they
	// keep (see maxTreeStates).
	trees      treeSet
	keepStates int
	// accepted is enumerate's scratch list of arena indices.
	accepted []int32

	// Statistics, flushed to the registry at search boundaries:
	// hits/misses count memo lookups, enumerated counts candidate paths
	// produced by real BFS runs (memo hits do not re-count), expansions
	// counts arena-BFS states expanded, and rejects counts candidate
	// pairs failing the prefix-freeness check (incremented by
	// pairCompat via localPaths).
	hits, misses, enumerated, expansions, rejects int

	// frontier tracks the peak BFS arena size across this enumerator's
	// real enumerations (one comparison per enumerate call, so it is
	// maintained unconditionally). The explainability ledger reads it
	// as the restart's FrontierPeak.
	frontier int
}

type enumKey struct {
	from, to string
	fl       flavor
}

func newEnumerator(tgt *dtd.DTD, maxLen, maxCands, maxExpand, maxPin int) *enumerator {
	return &enumerator{
		tgt:        tgt,
		tab:        newTargetTable(tgt, maxPin),
		maxLen:     maxLen,
		maxCands:   maxCands,
		maxExpand:  maxExpand,
		maxPin:     maxPin,
		memo:       make(map[enumKey][]candidate),
		keepStates: maxTreeStates,
	}
}

// paths returns candidate paths from target type `from` to target type
// `to` of the given flavor, shortest first. For flavorSTR, `to` is
// ignored: paths end at any str-typed element and carry a trailing
// text() step.
func (e *enumerator) paths(from, to string, fl flavor) []candidate {
	key := enumKey{from: from, to: to, fl: fl}
	if out, ok := e.memo[key]; ok {
		e.hits++
		return out
	}
	e.misses++
	out, aborted := e.enumerate(from, to, fl)
	// Count real enumeration work even when aborted: the partial
	// candidates were genuinely produced.
	e.enumerated += len(out)
	if !aborted {
		e.memo[key] = out
	}
	return out
}

// targetTable numbers the target types and lists the steps the BFS
// may take from each. It is built once per search, with the
// enumerator, and read by the viability test too.
type targetTable struct {
	index map[string]int32
	types []targetType
	moves []move
}

// targetType is one numbered target type. Its moves are moves[lo:hi]:
// a concatenation's child occurrences, a disjunction's children, or a
// star's pinned positions followed by its unpinned iterator.
type targetType struct {
	kind     dtd.Kind
	declared bool // the type has a production
	str      bool // the type is str-typed
	lo, hi   int32
}

// move is one step from a target type.
type move struct {
	to   int32
	step xpath.Step
	sl   slot
	kind dtd.EdgeKind
}

func newTargetTable(tgt *dtd.DTD, maxPin int) *targetTable {
	t := &targetTable{index: make(map[string]int32, len(tgt.Types))}
	id := func(a string) int32 {
		i, ok := t.index[a]
		if !ok {
			i = int32(len(t.types))
			t.index[a] = i
			t.types = append(t.types, targetType{})
		}
		return i
	}
	for _, a := range tgt.Types {
		id(a)
	}
	for _, a := range tgt.Types {
		prod, ok := tgt.Prods[a]
		if !ok {
			continue
		}
		add := func(c string, step xpath.Step, sl slot, kind dtd.EdgeKind) {
			t.moves = append(t.moves, move{to: id(c), step: step, sl: sl, kind: kind})
		}
		lo := int32(len(t.moves))
		switch prod.Kind {
		case dtd.KindConcat:
			occ := map[string]int{}
			for _, c := range prod.Children {
				occ[c]++
				pos := 0
				if prod.Occurrences(c) > 1 {
					pos = occ[c]
				}
				add(c, xpath.Step{Label: c, Pos: pos}, slot{label: c, occ: occ[c]}, dtd.EdgeAND)
			}
		case dtd.KindDisj:
			for _, c := range prod.Children {
				add(c, xpath.Step{Label: c}, slot{label: c, occ: 1}, dtd.EdgeOR)
			}
		case dtd.KindStar:
			c := prod.Children[0]
			for p := 1; p <= maxPin; p++ {
				add(c, xpath.Step{Label: c, Pos: p}, slot{label: c, occ: p}, dtd.EdgeSTAR)
			}
			add(c, xpath.Step{Label: c}, slot{label: c, occ: 0}, dtd.EdgeSTAR)
		}
		t.types[t.index[a]] = targetType{kind: prod.Kind, declared: true, str: prod.Kind == dtd.KindStr,
			lo: lo, hi: int32(len(t.moves))}
	}
	return t
}

// Path flags: the kinds of step a path has taken, which decide the
// flavors it may end as (see endOK).
const (
	flagOR uint8 = 1 << iota // an OR edge
	flagIt                   // the unpinned star iterator
	flagSt                   // any star edge, pinned or not
)

type treeKey struct {
	from int32
	fl   flavor
}

// treeSet is a set of BFS trees keyed by (from, flavor); states counts
// the states their arenas hold.
type treeSet struct {
	byKey  map[treeKey]*pathTree
	states int
}

// pathTree is the bounded BFS over the paths of one flavor from one
// target type, kept so that it can resume. States form a parent-pointer
// arena in BFS order; head is the next state to expand.
type pathTree struct {
	arena      []treeState
	head       int
	expansions int
}

// treeState is one BFS state: the path's end type, the move that
// extends its parent (-1 for the root), its length and its flags.
type treeState struct {
	at, move, parent int32
	length           int32
	flags            uint8
}

// maxTreeStates bounds the states an enumerator's trees keep: past it
// the next new tree starts a fresh set, and a dropped tree is rebuilt
// if asked again. Rebuilding changes no answer, only its cost; the
// bound keeps searches with large expansion budgets (Exact) from
// holding every tree they ever grew.
const maxTreeStates = 1 << 20

// tree returns the enumerator's BFS tree for (from, fl), creating it
// with only its root state.
func (e *enumerator) tree(from int32, fl flavor) *pathTree {
	ts, k := &e.trees, treeKey{from: from, fl: fl}
	if t, ok := ts.byKey[k]; ok {
		return t
	}
	if ts.byKey == nil || ts.states > e.keepStates {
		ts.byKey = make(map[treeKey]*pathTree)
		ts.states = 0
	}
	t := &pathTree{arena: make([]treeState, 1, 8)}
	t.arena[0] = treeState{at: from, move: -1, parent: -1}
	ts.byKey[k] = t
	return t
}

// enumerate answers one query from its (from, fl) tree, growing the
// tree only as far as this query needs. A query's answer is exactly
// that of a fresh BFS bounded for it alone: the tree expands states in
// the same order whichever queries grew it, the expansion budget is
// spent on the same states, and the accepted states are taken in arena
// order up to maxCands. It reports whether the search was aborted by
// stop (aborted results must not be cached).
func (e *enumerator) enumerate(from, to string, fl flavor) ([]candidate, bool) {
	fi, ok := e.tab.index[from]
	if !ok {
		return nil, false
	}
	var end int32
	if fl != flavorSTR {
		if end, ok = e.tab.index[to]; !ok {
			return nil, false
		}
	}
	t := e.tree(fi, fl)
	// The accepted states the tree already holds (the root is never
	// one), then those it grows.
	hits := e.accepted[:0]
	for i := 1; i < len(t.arena) && len(hits) < e.maxCands; i++ {
		if e.accepts(t.arena[i], fl, end) {
			hits = append(hits, int32(i))
		}
	}
	before := len(t.arena)
	hits, aborted := e.grow(t, fl, end, hits)
	e.accepted = hits
	e.trees.states += len(t.arena) - before
	if n := len(t.arena); n > e.frontier {
		e.frontier = n
	}
	if len(hits) == 0 {
		return nil, aborted
	}
	out := make([]candidate, len(hits))
	for i, idx := range hits {
		out[i] = e.materialize(t.arena, idx, fl)
	}
	return out, aborted
}

// accepts reports whether st ends a path of flavor fl at end (for
// flavorSTR, at any str-typed type).
func (e *enumerator) accepts(st treeState, fl flavor, end int32) bool {
	if fl != flavorSTR && st.at != end {
		return false
	}
	return endOK(fl, st.flags&flagOR != 0, st.flags&flagIt != 0, st.flags&flagSt != 0, e.tab.types[st.at].str)
}

// grow expands t's states in BFS order, appending each new state that
// ends at end to hits, until hits holds maxCands states or the BFS is
// over: its queue is empty or the expansion budget is spent. It
// reports whether stop aborted it.
func (e *enumerator) grow(t *pathTree, fl flavor, end int32, hits []int32) ([]int32, bool) {
	for t.head < len(t.arena) && len(hits) < e.maxCands && t.expansions < e.maxExpand {
		if e.stop != nil && e.stop() {
			return hits, true
		}
		head := int32(t.head)
		st := t.arena[head]
		t.head++
		if int(st.length) >= e.maxLen {
			continue
		}
		ty := e.tab.types[st.at]
		if !ty.declared {
			continue
		}
		t.expansions++
		e.expansions++
		// The moves taken are moves[lo:hi], and the star iterator
		// moves[hi] when iterate is set.
		flags, hi, iterate := st.flags, ty.hi, false
		switch ty.kind {
		case dtd.KindConcat:
		case dtd.KindDisj:
			if fl != flavorOR {
				continue // OR edges are only legal on OR paths
			}
			flags |= flagOR
		case dtd.KindStar:
			if fl == flavorOR {
				continue // STAR edges are illegal on OR paths
			}
			flags |= flagSt
			// The pinned positions, then the unpinned iterator, once,
			// on STAR paths.
			hi--
			iterate = fl == flavorSTAR && st.flags&flagIt == 0
		default:
			continue // only flavorSTR ends at a str type, on arrival
		}
		for m := ty.lo; m < hi; m++ {
			hits = e.extend(t, fl, end, hits, head, m, flags)
		}
		if iterate {
			hits = e.extend(t, fl, end, hits, head, hi, flags|flagIt)
		}
	}
	return hits, false
}

// extend appends the state that extends arena[parent] by move m, and
// appends it to hits when it ends at end and hits is not full.
func (e *enumerator) extend(t *pathTree, fl flavor, end int32, hits []int32, parent, m int32, flags uint8) []int32 {
	next := treeState{at: e.tab.moves[m].to, move: m, parent: parent, length: t.arena[parent].length + 1, flags: flags}
	t.arena = append(t.arena, next)
	if len(hits) < e.maxCands && e.accepts(next, fl, end) {
		hits = append(hits, int32(len(t.arena)-1))
	}
	return hits
}

// endOK is the flavor's condition on a path ending at its target type:
// the path's flags (an OR edge, the unpinned star iterator, any star
// edge crossed) and, for flavorSTR, whether the end type is str-typed.
func endOK(fl flavor, sawOR, sawIt, sawSt, strEnd bool) bool {
	switch fl {
	case flavorAND:
		return !sawOR
	case flavorOR:
		return sawOR && !sawSt
	case flavorSTAR:
		return sawIt && !sawOR
	case flavorSTR:
		return strEnd && !sawOR
	}
	return false
}

// materialize walks the parent chain of the accepted state and builds
// the candidate's path, slots and kinds slices — the only per-candidate
// allocations of the enumeration.
func (e *enumerator) materialize(arena []treeState, idx int32, fl flavor) candidate {
	n := int(arena[idx].length)
	c := candidate{
		path:  xpath.Path{Steps: make([]xpath.Step, n)},
		slots: make([]slot, n),
		kinds: make([]dtd.EdgeKind, n),
	}
	for i := idx; arena[i].parent >= 0; i = arena[i].parent {
		n--
		m := &e.tab.moves[arena[i].move]
		c.path.Steps[n] = m.step
		c.slots[n] = m.sl
		c.kinds[n] = m.kind
	}
	if fl == flavorSTR {
		c.path.Text = true
	}
	return c
}

// textOnlyCandidate returns the zero-step text() path for a str edge
// whose parent maps to a str-typed target.
func (e *enumerator) textOnlyCandidate(from string) (candidate, bool) {
	prod, ok := e.tgt.Prods[from]
	if !ok || prod.Kind != dtd.KindStr {
		return candidate{}, false
	}
	return candidate{path: xpath.Path{Text: true}}, true
}

// strCandidates enumerates str-edge paths from a target type: the
// text-only path when the type itself is str-typed, plus AND paths to
// str-typed elements.
func (e *enumerator) strCandidates(from string) []candidate {
	var out []candidate
	if c, ok := e.textOnlyCandidate(from); ok {
		out = append(out, c)
	}
	out = append(out, e.paths(from, "", flavorSTR)...)
	return out
}
