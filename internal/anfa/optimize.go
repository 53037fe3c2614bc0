package anfa

// Schema-aware ANFA optimization (ROADMAP item 3): a simplification
// pass run between query translation and evaluation. Translated
// automata are unions of per-occurrence path machines and inherit a
// lot of redundancy — ε-chains from machine composition, duplicated
// prefixes from per-label grouping, structurally identical qualifier
// sub-machines registered under distinct names. Evaluation cost is
// linear in |ANFA|·|T| per machine, so every state removed here is
// paid back on every document evaluated.
//
// The pass is sound for the node-set semantics of Eval: the selected
// set is preserved exactly (first-acceptance *order* may change, and
// every caller in this repository compares selections as ID sets or
// multisets). Schema pruning additionally assumes the evaluated
// document conforms to the supplied target DTD — true by construction
// for migrated instances σd(T), which is the data-plane steady state;
// pass a nil Schema (or translate with NoOptimize) when evaluating
// over arbitrary documents.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dtd"
)

// OptOptions configures Optimize.
type OptOptions struct {
	// Schema is the DTD the evaluated documents conform to — for a
	// translated query, the embedding's target schema. nil disables
	// the schema-aware pruning pass; the structural passes (subset
	// construction, bisimulation merging, sub-ANFA sharing) still run.
	Schema *dtd.DTD
}

// OptStats reports what one Optimize call did.
type OptStats struct {
	// StatesBefore/After count states across the top machine and all
	// named sub-machines; SizeBefore/After are Automaton.Size (states
	// plus transitions), the |ANFA| of the paper's bounds.
	StatesBefore int `json:"states_before"`
	StatesAfter  int `json:"states_after"`
	SizeBefore   int `json:"size_before"`
	SizeAfter    int `json:"size_after"`
	// Removed counts states dropped as schema-dead or useless;
	// Merged counts states eliminated by subset construction,
	// bisimulation merging and duplicate sub-ANFA sharing.
	Removed int `json:"removed"`
	Merged  int `json:"merged"`
}

// Optimize simplifies the automaton in place, preserving the selected
// node set on every document conforming to opt.Schema (on every
// document at all when Schema is nil). The passes, in order:
//
//  1. Schema pruning: a type-set dataflow over every machine — the
//     top machine starts at the schema root, each named sub-machine
//     at the union of the type sets of the states whose qualifiers
//     reference it — drops transitions whose label cannot occur below
//     any type reaching their source state.
//  2. Useless-state removal (also inside named machines).
//  3. Label-deterministic subset construction per machine, bounded by
//     the input's state count: annotation-free states merge into
//     subsets, annotated states survive as opaque singletons reached
//     by ε-edges (their qualifiers gate occupancy per node and cannot
//     be merged away). Accepted only when it does not grow the
//     machine; the schema's content models keep the subset space
//     narrow in practice.
//  4. Bisimulation merging: states with equal finality, equal
//     qualifier and equal label-to-block transition structure
//     collapse — this is where a qualifier shared by merged states is
//     hoisted onto the single surviving state and checked once.
//  5. Useless-state removal again, then common sub-ANFA sharing:
//     structurally identical named machines collapse onto one name,
//     so qualifier emptiness memoization hits once per node across
//     the whole union of translated paths.
func Optimize(a *Automaton, opt OptOptions) OptStats {
	st := OptStats{StatesBefore: a.NumStates(), SizeBefore: a.Size()}
	if opt.Schema != nil {
		schemaPrune(a, opt.Schema)
	}
	before := a.NumStates()
	a.RemoveUseless()
	st.Removed += before - a.NumStates()

	apply := func(m *Machine) *Machine {
		dedupeTransitions(m)
		if det := determinize(m); det != nil && det.States <= m.States {
			st.Merged += m.States - det.States
			m = det
		}
		nm := bisimMerge(m)
		st.Merged += m.States - nm.States
		return nm
	}
	a.M = apply(a.M)
	for name, m := range a.Names {
		a.Names[name] = apply(m)
	}

	before = a.NumStates()
	a.RemoveUseless()
	st.Removed += before - a.NumStates()

	st.Merged += shareNames(a)

	st.StatesAfter = a.NumStates()
	st.SizeAfter = a.Size()
	a.prog.Store(nil)
	if st.Removed > 0 {
		mOptStatesRemoved.Add(uint64(st.Removed))
	}
	if st.Merged > 0 {
		mOptMerged.Add(uint64(st.Merged))
	}
	return st
}

// textType is the pseudo-type of text nodes in the dataflow: it has
// no children, so nothing flows out of a text step.
const textType = "#text"

// schemaPrune drops transitions that cannot fire on any document
// conforming to the schema. For each machine it computes, per state,
// the set of target types whose nodes can occupy that state (labels
// are type names in a local schema, so a child labeled l has type l),
// then removes label transitions whose label is not a child of any
// type in the source state's set and text transitions whose source
// set contains no str-producing type. Context sets — which types a
// machine can be *started* at — are closed over qualifier references
// by chaotic iteration.
func schemaPrune(a *Automaton, schema *dtd.DTD) {
	child := make(map[string]map[string]bool, len(schema.Prods))
	hasText := make(map[string]bool, len(schema.Prods))
	for t, p := range schema.Prods {
		switch p.Kind {
		case dtd.KindStr:
			hasText[t] = true
		case dtd.KindConcat, dtd.KindDisj, dtd.KindStar:
			set := make(map[string]bool, len(p.Children))
			for _, c := range p.Children {
				set[c] = true
			}
			child[t] = set
		}
	}

	names := []string{""}
	for n := range a.Names {
		names = append(names, n)
	}
	sort.Strings(names)
	get := func(n string) *Machine {
		if n == "" {
			return a.M
		}
		return a.Names[n]
	}

	ctx := map[string]map[string]bool{"": {schema.Root: true}}
	sets := map[string][]map[string]bool{}
	for {
		changed := false
		for _, n := range names {
			m := get(n)
			ts := flowTypes(m, ctx[n], child, hasText)
			sets[n] = ts
			for s, q := range m.Ann {
				for _, x := range qualNames(q) {
					if ctx[x] == nil {
						ctx[x] = map[string]bool{}
					}
					for t := range ts[s] {
						if !ctx[x][t] {
							ctx[x][t] = true
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			break
		}
	}

	for _, n := range names {
		m, ts := get(n), sets[n]
		for s := 0; s < m.States; s++ {
			kept := m.Trans[s][:0]
			for _, tr := range m.Trans[s] {
				if feasible(ts[s], tr.Label, child, hasText) {
					kept = append(kept, tr)
				}
			}
			m.Trans[s] = kept
		}
	}
}

// flowTypes propagates the context type set forward through one
// machine: ε keeps the type, a label step moves to the child's type,
// a text step moves to the childless pseudo-type.
func flowTypes(m *Machine, ctxTypes map[string]bool, child map[string]map[string]bool, hasText map[string]bool) []map[string]bool {
	sets := make([]map[string]bool, m.States)
	for i := range sets {
		sets[i] = map[string]bool{}
	}
	if m.States == 0 {
		return sets
	}
	type item struct {
		s StateID
		t string
	}
	var queue []item
	add := func(s StateID, t string) {
		if !sets[s][t] {
			sets[s][t] = true
			queue = append(queue, item{s, t})
		}
	}
	for t := range ctxTypes {
		add(m.Start, t)
	}
	for len(queue) > 0 {
		it := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, tr := range m.Trans[it.s] {
			switch tr.Label {
			case Epsilon:
				add(tr.To, it.t)
			case TextLabel:
				if hasText[it.t] {
					add(tr.To, textType)
				}
			default:
				if c := child[it.t]; c != nil && c[tr.Label] {
					add(tr.To, tr.Label)
				}
			}
		}
	}
	return sets
}

func feasible(src map[string]bool, label string, child map[string]map[string]bool, hasText map[string]bool) bool {
	switch label {
	case Epsilon:
		return len(src) > 0
	case TextLabel:
		for t := range src {
			if hasText[t] {
				return true
			}
		}
		return false
	default:
		for t := range src {
			if c := child[t]; c != nil && c[label] {
				return true
			}
		}
		return false
	}
}

// qualNames returns the sub-machine names a qualifier references.
func qualNames(q Qual) []string {
	var out []string
	var walk func(Qual)
	walk = func(q Qual) {
		switch q := q.(type) {
		case QName:
			out = append(out, q.X)
		case QTextEq:
			out = append(out, q.X)
		case QNot:
			walk(q.Q)
		case QAnd:
			walk(q.L)
			walk(q.R)
		case QOr:
			walk(q.L)
			walk(q.R)
		}
	}
	walk(q)
	return out
}

// dedupeTransitions removes duplicate (label, to) edges in place,
// keeping first occurrences.
func dedupeTransitions(m *Machine) {
	for s := 0; s < m.States; s++ {
		if len(m.Trans[s]) < 2 {
			continue
		}
		seen := make(map[Transition]bool, len(m.Trans[s]))
		kept := m.Trans[s][:0]
		for _, tr := range m.Trans[s] {
			if !seen[tr] {
				seen[tr] = true
				kept = append(kept, tr)
			}
		}
		m.Trans[s] = kept
	}
}

// maxDetInput caps the machines subset construction attempts; beyond
// it the pass is skipped rather than risk quadratic key-building work
// on automata that are already pathological.
const maxDetInput = 2048

// determinize rebuilds m by label-deterministic subset construction
// over its annotation-free states. Annotated states cannot join a
// subset — their occupancy is gated per node by the qualifier — so
// each survives as an opaque singleton ("rep") carrying its
// annotation, entered by an ε-edge from every subset whose ε-closure
// crossed it. The result is returned only when construction stays
// within the input's state count (nil otherwise): schema-pruned
// translated machines are narrow, so the subset space collapses the
// shared prefixes of the translated path union instead of exploding.
func determinize(m *Machine) *Machine {
	if m.States == 0 || m.States > maxDetInput {
		return nil
	}
	nm := &Machine{
		Finals: map[StateID]bool{},
		Ann:    map[StateID]Qual{},
		Labels: map[StateID]string{},
	}
	overflow := false
	alloc := func() StateID {
		id := StateID(nm.States)
		nm.States++
		nm.Trans = append(nm.Trans, nil)
		if nm.States > m.States {
			overflow = true
		}
		return id
	}

	type task struct {
		id     StateID
		frees  []StateID
		bounds []StateID
		rep    StateID // >= 0: singleton for this annotated state
	}
	var tasks []task
	subsets := map[string]StateID{}
	reps := map[StateID]StateID{}

	var getSubset func(frees, bounds []StateID) StateID
	getRep := func(s StateID) StateID {
		if id, ok := reps[s]; ok {
			return id
		}
		id := alloc()
		reps[s] = id
		nm.Ann[id] = m.Ann[s]
		if m.Finals[s] {
			nm.Finals[id] = true
		}
		if l, ok := m.Labels[s]; ok {
			nm.Labels[id] = l
		}
		tasks = append(tasks, task{id: id, rep: s})
		return id
	}
	getSubset = func(frees, bounds []StateID) StateID {
		k := subsetKey(frees, bounds)
		if id, ok := subsets[k]; ok {
			return id
		}
		id := alloc()
		subsets[k] = id
		for _, f := range frees {
			if m.Finals[f] {
				nm.Finals[id] = true
				if l, ok := m.Labels[f]; ok {
					if _, have := nm.Labels[id]; !have {
						nm.Labels[id] = l
					}
				}
			}
		}
		for _, b := range bounds {
			nm.Trans[id] = append(nm.Trans[id], Transition{Label: Epsilon, To: getRep(b)})
		}
		tasks = append(tasks, task{id: id, frees: frees, bounds: bounds, rep: -1})
		return id
	}
	// link adds an edge to the det state for (frees, bounds); a lone
	// annotated target skips the forwarding subset.
	link := func(from StateID, label string, frees, bounds []StateID) {
		if len(frees) == 0 && len(bounds) == 1 {
			nm.Trans[from] = append(nm.Trans[from], Transition{Label: label, To: getRep(bounds[0])})
			return
		}
		if len(frees)+len(bounds) == 0 {
			return
		}
		nm.Trans[from] = append(nm.Trans[from], Transition{Label: label, To: getSubset(frees, bounds)})
	}

	f0, b0 := closureFree(m, []StateID{m.Start})
	if len(f0) == 0 && len(b0) == 1 {
		nm.Start = getRep(b0[0])
	} else {
		nm.Start = getSubset(f0, b0)
	}

	for i := 0; i < len(tasks) && !overflow; i++ {
		t := tasks[i]
		moves := map[string][]StateID{}
		var order []string
		var epsSucc []StateID
		record := func(tr Transition) {
			if tr.Label == Epsilon {
				epsSucc = append(epsSucc, tr.To)
				return
			}
			if _, ok := moves[tr.Label]; !ok {
				order = append(order, tr.Label)
			}
			moves[tr.Label] = append(moves[tr.Label], tr.To)
		}
		if t.rep >= 0 {
			for _, tr := range m.Trans[t.rep] {
				record(tr)
			}
			if len(epsSucc) > 0 {
				f, b := closureFree(m, epsSucc)
				link(t.id, Epsilon, f, b)
			}
		} else {
			// ε-moves inside the subset are already in its closure.
			for _, s := range t.frees {
				for _, tr := range m.Trans[s] {
					if tr.Label != Epsilon {
						record(tr)
					}
				}
			}
		}
		sort.Strings(order)
		for _, l := range order {
			f, b := closureFree(m, moves[l])
			link(t.id, l, f, b)
		}
	}
	if overflow {
		return nil
	}
	return nm
}

// closureFree follows ε-edges from the seed through annotation-free
// states, returning the annotation-free states reached (frees) and
// the annotated states the closure stopped at (bounds), both sorted.
func closureFree(m *Machine, seed []StateID) (frees, bounds []StateID) {
	seenF := map[StateID]bool{}
	seenB := map[StateID]bool{}
	stack := append([]StateID(nil), seed...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, annotated := m.Ann[s]; annotated {
			seenB[s] = true
			continue
		}
		if seenF[s] {
			continue
		}
		seenF[s] = true
		for _, tr := range m.Trans[s] {
			if tr.Label == Epsilon {
				stack = append(stack, tr.To)
			}
		}
	}
	for s := range seenF {
		frees = append(frees, s)
	}
	for s := range seenB {
		bounds = append(bounds, s)
	}
	sort.Slice(frees, func(i, j int) bool { return frees[i] < frees[j] })
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return frees, bounds
}

func subsetKey(frees, bounds []StateID) string {
	var b strings.Builder
	for _, s := range frees {
		fmt.Fprintf(&b, "f%d,", s)
	}
	for _, s := range bounds {
		fmt.Fprintf(&b, "b%d,", s)
	}
	return b.String()
}

// bisimMerge collapses bisimilar states: equal finality (and final
// label), equal qualifier (by canonical form — this is the qualifier
// hoist: one merged state checks the shared qualifier once), and
// equal label-to-block transition structure, refined to fixpoint.
func bisimMerge(m *Machine) *Machine {
	if m.States == 0 {
		return m
	}
	block := make([]int, m.States)
	sig := map[string]int{}
	for s := 0; s < m.States; s++ {
		var b strings.Builder
		if m.Finals[StateID(s)] {
			b.WriteString("F:")
			b.WriteString(m.Labels[StateID(s)])
			b.WriteString(";")
		}
		if q, ok := m.Ann[StateID(s)]; ok {
			b.WriteString("A:")
			b.WriteString(canonQual(q))
		}
		k := b.String()
		id, ok := sig[k]
		if !ok {
			id = len(sig)
			sig[k] = id
		}
		block[s] = id
	}
	count := len(sig)
	for {
		next := map[string]int{}
		nb := make([]int, m.States)
		for s := 0; s < m.States; s++ {
			edges := make([]string, 0, len(m.Trans[s]))
			for _, tr := range m.Trans[s] {
				edges = append(edges, fmt.Sprintf("%s\x00%d", tr.Label, block[tr.To]))
			}
			sort.Strings(edges)
			edges = compactStrings(edges)
			key := fmt.Sprintf("%d|%s", block[s], strings.Join(edges, "\x01"))
			id, ok := next[key]
			if !ok {
				id = len(next)
				next[key] = id
			}
			nb[s] = id
		}
		if len(next) == count {
			break
		}
		block, count = nb, len(next)
	}
	if count == m.States {
		return m
	}
	// Rebuild one state per block; blocks numbered by first member.
	remap := make([]StateID, count)
	repOf := make([]StateID, count)
	for i := range remap {
		remap[i] = -1
	}
	nextID := 0
	for s := 0; s < m.States; s++ {
		if remap[block[s]] < 0 {
			remap[block[s]] = StateID(nextID)
			repOf[block[s]] = StateID(s)
			nextID++
		}
	}
	nm := &Machine{
		States: count,
		Start:  remap[block[m.Start]],
		Finals: map[StateID]bool{},
		Trans:  make([][]Transition, count),
		Ann:    map[StateID]Qual{},
		Labels: map[StateID]string{},
	}
	for b := 0; b < count; b++ {
		rep := repOf[b]
		ns := remap[b]
		seen := map[Transition]bool{}
		for _, tr := range m.Trans[rep] {
			nt := Transition{Label: tr.Label, To: remap[block[tr.To]]}
			if !seen[nt] {
				seen[nt] = true
				nm.Trans[ns] = append(nm.Trans[ns], nt)
			}
		}
		if m.Finals[rep] {
			nm.Finals[ns] = true
		}
		if q, ok := m.Ann[rep]; ok {
			nm.Ann[ns] = q
		}
		if l, ok := m.Labels[rep]; ok {
			nm.Labels[ns] = l
		}
	}
	return nm
}

func compactStrings(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// canonQual is an unambiguous (fully parenthesized) rendering used as
// a structural equality key.
func canonQual(q Qual) string {
	switch q := q.(type) {
	case QName:
		return "n(" + q.X + ")"
	case QTextEq:
		return fmt.Sprintf("t(%s,%q)", q.X, q.Val)
	case QPos:
		return fmt.Sprintf("p(%d)", q.K)
	case QNot:
		return "!(" + canonQual(q.Q) + ")"
	case QAnd:
		return "&(" + canonQual(q.L) + "," + canonQual(q.R) + ")"
	case QOr:
		return "|(" + canonQual(q.L) + "," + canonQual(q.R) + ")"
	}
	return "?"
}

// shareNames collapses structurally identical named machines onto one
// name (common sub-ANFA sharing): references are rewritten and the
// duplicates dropped, iterated because sharing one pair can make the
// machines referencing them identical in turn. Returns the number of
// states eliminated.
func shareNames(a *Automaton) int {
	merged := 0
	for {
		names := make([]string, 0, len(a.Names))
		for n := range a.Names {
			names = append(names, n)
		}
		sort.Strings(names)
		byKey := map[string]string{}
		rename := map[string]string{}
		for _, n := range names {
			k := machineKey(a.Names[n])
			if first, ok := byKey[k]; ok {
				rename[n] = first
			} else {
				byKey[k] = n
			}
		}
		if len(rename) == 0 {
			return merged
		}
		for n := range rename {
			merged += a.Names[n].States
			delete(a.Names, n)
		}
		rewriteAnn := func(m *Machine) {
			for s, q := range m.Ann {
				m.Ann[s] = renameQual(q, rename)
			}
		}
		rewriteAnn(a.M)
		for _, m := range a.Names {
			rewriteAnn(m)
		}
	}
}

// machineKey renders a machine in a start-BFS canonical numbering so
// that structurally identical machines compare equal regardless of
// their internal state numbering. Best effort: isomorphic machines
// whose edge orders differ may still key apart, which only costs a
// missed sharing opportunity.
func machineKey(m *Machine) string {
	pos := map[StateID]int{m.Start: 0}
	order := []StateID{m.Start}
	sortedTrans := func(s StateID) []Transition {
		ts := append([]Transition(nil), m.Trans[s]...)
		sort.Slice(ts, func(i, j int) bool {
			if ts[i].Label != ts[j].Label {
				return ts[i].Label < ts[j].Label
			}
			return ts[i].To < ts[j].To
		})
		return ts
	}
	for i := 0; i < len(order); i++ {
		for _, tr := range sortedTrans(order[i]) {
			if _, ok := pos[tr.To]; !ok {
				pos[tr.To] = len(order)
				order = append(order, tr.To)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n%d;", len(order))
	for _, s := range order {
		if m.Finals[s] {
			fmt.Fprintf(&b, "F(%s)", m.Labels[s])
		}
		if q, ok := m.Ann[s]; ok {
			fmt.Fprintf(&b, "A(%s)", canonQual(q))
		}
		for _, tr := range sortedTrans(s) {
			fmt.Fprintf(&b, "%q>%d,", tr.Label, pos[tr.To])
		}
		b.WriteString(";")
	}
	return b.String()
}

// renameQual rewrites name references per the rename map.
func renameQual(q Qual, ren map[string]string) Qual {
	switch q := q.(type) {
	case QName:
		if n, ok := ren[q.X]; ok {
			return QName{X: n}
		}
		return q
	case QTextEq:
		if n, ok := ren[q.X]; ok {
			return QTextEq{X: n, Val: q.Val}
		}
		return q
	case QNot:
		return QNot{Q: renameQual(q.Q, ren)}
	case QAnd:
		return QAnd{L: renameQual(q.L, ren), R: renameQual(q.R, ren)}
	case QOr:
		return QOr{L: renameQual(q.L, ren), R: renameQual(q.R, ren)}
	}
	return q
}
