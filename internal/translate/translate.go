// Package translate implements the schema-directed translation Tr of
// §4.4: given a valid schema embedding σ : S1 → S2, it translates any
// X_R query Q over S1 into an ANFA over S2 such that for every source
// document T, Q(T) = idM(Tr(Q)(σd(T))) (Theorem 4.2). The translation
// is computed per (subquery, source element type) pair with
// memoization, giving the O(|Q|²·|σ|·|S1|²) bound of Theorem 4.3(b);
// the resulting automaton has size O(|Q|·|σ|·|S1|) and is evaluated
// directly, since expanding it to an X_R expression is
// EXPTIME-complete in general.
//
// Deviation from the paper's case (h): position() qualifiers are
// translated structurally and are supported only directly on label
// steps (B[position() = k]), the form used by X_R paths and by the
// generic inverse construction. The paper's statement of case (h)
// annotates the target state with position() = k verbatim, which is
// not sound when σ relocates siblings; the structural translation
// selects the k-th occurrence's path instead.
package translate

import (
	"context"
	"fmt"

	"repro/internal/anfa"
	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/guard"
	"repro/internal/xpath"
)

// strType is the pseudo source type of text nodes, used as a final
// label when a subquery ends in text().
const strType = "#str"

// Options configures translation post-processing.
type Options struct {
	// NoOptimize disables the schema-aware ANFA optimizer
	// (anfa.Optimize under the embedding's target schema) that
	// otherwise runs on every translated automaton. The unoptimized
	// automaton is the differential baseline for the optimizer (oracle
	// property anfa-opt-differential, FuzzAnfaOptimize); it is also
	// the right choice when evaluating over documents that do not
	// conform to the target schema, which schema pruning assumes.
	NoOptimize bool
}

// Translator translates X_R queries across a fixed, validated
// embedding. It is not safe for concurrent use.
type Translator struct {
	emb     *embedding.Embedding
	opts    Options
	memo    map[memoKey]*anfa.Machine
	auto    *anfa.Automaton
	next    int
	lastOpt anfa.OptStats
	// ctx is the context of the translation in flight, observed at
	// every memoized subproblem; context.Background() outside
	// TranslateCtx.
	ctx context.Context
}

type memoKey struct {
	e xpath.Expr
	a string
}

// New validates the embedding and returns a Translator for it with
// default options (optimizer on).
func New(emb *embedding.Embedding) (*Translator, error) {
	return NewWithOptions(emb, Options{})
}

// NewWithOptions is New with explicit options.
func NewWithOptions(emb *embedding.Embedding, opts Options) (*Translator, error) {
	if err := emb.Validate(nil); err != nil {
		return nil, err
	}
	return &Translator{emb: emb, opts: opts}, nil
}

// Translate computes Tr(Q) = Trl(Q, r1) as an ANFA over the target
// schema. Descendant-or-self steps (the X fragment) are desugared over
// the source alphabet first. Queries whose translation can select
// nothing yield an automaton with no reachable final states.
func (t *Translator) Translate(q xpath.Expr) (*anfa.Automaton, error) {
	return t.TranslateCtx(context.Background(), q)
}

// TranslateCtx is Translate under a context: cancellation is observed
// at every (subquery, source type) subproblem and surfaces as a
// *guard.CancelError matching the context's error under errors.Is.
func (t *Translator) TranslateCtx(ctx context.Context, q xpath.Expr) (*anfa.Automaton, error) {
	ctx, tm := stTranslate.Begin(ctx)
	defer tm.End()
	t.ctx = ctx
	defer func() { t.ctx = nil }()
	q = xpath.DesugarDesc(q, t.emb.Source.Types)
	// Fresh per-call tables: memoized machines reference qualifier
	// sub-machines registered in the automaton under construction.
	t.auto = anfa.NewAutomaton(anfa.NewMachine())
	t.memo = make(map[memoKey]*anfa.Machine)
	m, err := t.local(q, t.emb.Source.Root)
	if err != nil {
		return nil, err
	}
	top := copyMachine(m)
	t.auto.M = top
	t.auto.RemoveUseless()
	if t.opts.NoOptimize {
		states, size := t.auto.NumStates(), t.auto.Size()
		t.lastOpt = anfa.OptStats{
			StatesBefore: states, StatesAfter: states,
			SizeBefore: size, SizeAfter: size,
		}
	} else {
		// The optimizer runs once per translation; every evaluation of
		// the cached automaton (and its compiled program) profits.
		t.lastOpt = anfa.Optimize(t.auto, anfa.OptOptions{Schema: t.emb.Target})
	}
	mTranslates.Inc()
	mANFASize.Observe(float64(t.auto.Size()))
	return t.auto, nil
}

// LastOptStats reports the optimizer statistics of the most recent
// (successful) translation: zero until one completes, before==after
// when the optimizer is disabled.
func (t *Translator) LastOptStats() anfa.OptStats { return t.lastOpt }

func copyMachine(src *anfa.Machine) *anfa.Machine {
	dst := anfa.NewMachine()
	remap := anfa.Embed(dst, src)
	dst.Start = remap[src.Start]
	for f := range src.Finals {
		dst.Finals[remap[f]] = true
	}
	for s, l := range src.Labels {
		dst.Labels[remap[s]] = l
	}
	return dst
}

func (t *Translator) freshName() string {
	t.next++
	return fmt.Sprintf("T%d", t.next)
}

// failMachine accepts nothing.
func failMachine() *anfa.Machine { return anfa.NewMachine() }

func hasFinals(m *anfa.Machine) bool { return len(m.Finals) > 0 }

// local computes Trl(e, a): a standalone machine whose finals carry
// source-type labels, memoized per (subquery, context type).
func (t *Translator) local(e xpath.Expr, a string) (*anfa.Machine, error) {
	if t.ctx != nil {
		if err := guard.CheckCtx(t.ctx, "translate"); err != nil {
			return nil, err
		}
	}
	key := memoKey{e: e, a: a}
	if m, ok := t.memo[key]; ok {
		return m, nil
	}
	m, err := t.compute(e, a)
	if err != nil {
		return nil, err
	}
	t.memo[key] = m
	return m, nil
}

func (t *Translator) compute(e xpath.Expr, a string) (*anfa.Machine, error) {
	switch e := e.(type) {
	case xpath.Empty:
		// Case (2a): the context node itself.
		m := anfa.NewMachine()
		m.Finals[m.Start] = true
		m.Labels[m.Start] = a
		return m, nil

	case xpath.Label:
		// Case (2b): the union of the paths mapped from the (A, B)
		// edges; Fail when B is not a child of A.
		return t.labelMachine(a, e.Name, 0)

	case xpath.Text:
		return t.textMachine(a)

	case xpath.Seq:
		if txt, ok := e.R.(xpath.Text); ok {
			_ = txt
			// p/text(): translate p, then append the str paths of the
			// final labels (case (2d), text variant).
			left, err := t.local(e.L, a)
			if err != nil {
				return nil, err
			}
			return t.appendPerLabel(left, func(b string) (*anfa.Machine, error) {
				return t.textMachine(b)
			})
		}
		left, err := t.local(e.L, a)
		if err != nil {
			return nil, err
		}
		return t.appendPerLabel(left, func(b string) (*anfa.Machine, error) {
			return t.local(e.R, b)
		})

	case xpath.Union:
		// Case (2c).
		l, err := t.local(e.L, a)
		if err != nil {
			return nil, err
		}
		r, err := t.local(e.R, a)
		if err != nil {
			return nil, err
		}
		m := anfa.NewMachine()
		rl := anfa.Embed(m, l)
		rr := anfa.Embed(m, r)
		m.AddTransition(m.Start, anfa.Epsilon, rl[l.Start])
		m.AddTransition(m.Start, anfa.Epsilon, rr[r.Start])
		for f := range l.Finals {
			m.Finals[rl[f]] = true
			m.Labels[rl[f]] = l.Labels[f]
		}
		for f := range r.Finals {
			m.Finals[rr[f]] = true
			m.Labels[rr[f]] = r.Labels[f]
		}
		return m, nil

	case xpath.Star:
		return t.starMachine(e, a)

	case xpath.Filter:
		return t.filterMachine(e, a)

	case xpath.Desc:
		return nil, fmt.Errorf("translate: internal: // must be desugared before translation")
	}
	return nil, fmt.Errorf("translate: unsupported expression %T", e)
}

// labelMachine codes the target paths of the source edges (a, b). If
// occ > 0 only that occurrence's path is coded (B[position() = occ]);
// occ == 0 takes the union over all occurrences.
func (t *Translator) labelMachine(a, b string, occ int) (*anfa.Machine, error) {
	if a == strType {
		return failMachine(), nil
	}
	prod, ok := t.emb.Source.Prods[a]
	if !ok {
		return failMachine(), nil
	}
	n := prod.Occurrences(b)
	if n == 0 {
		return failMachine(), nil
	}
	if prod.Kind == dtd.KindStar && occ > 0 {
		// B[position() = k] under a star parent: the iterator step is
		// pinned to the k-th child.
		return t.pathMachine(embedding.EdgeRef{Parent: a, Child: b, Occ: 1}, b, occ)
	}
	if occ > n {
		return failMachine(), nil
	}
	var occs []int
	if occ > 0 {
		occs = []int{occ}
	} else {
		for i := 1; i <= n; i++ {
			occs = append(occs, i)
		}
	}
	var machines []*anfa.Machine
	for _, o := range occs {
		pm, err := t.pathMachine(embedding.EdgeRef{Parent: a, Child: b, Occ: o}, b, 0)
		if err != nil {
			return nil, err
		}
		machines = append(machines, pm)
	}
	if len(machines) == 1 {
		return machines[0], nil
	}
	m := anfa.NewMachine()
	for _, sub := range machines {
		remap := anfa.Embed(m, sub)
		m.AddTransition(m.Start, anfa.Epsilon, remap[sub.Start])
		for f := range sub.Finals {
			m.Finals[remap[f]] = true
			m.Labels[remap[f]] = sub.Labels[f]
		}
	}
	return m, nil
}

// pathMachine codes one embedded path as a chain with position
// annotations where navigation is ambiguous. pinIterator > 0 pins the
// iterator step of a star path to that child position.
func (t *Translator) pathMachine(ref embedding.EdgeRef, label string, pinIterator int) (*anfa.Machine, error) {
	steps, err := t.emb.ResolvedSteps(ref)
	if err != nil {
		return nil, err
	}
	m := anfa.NewMachine()
	cur := m.Start
	for _, s := range steps {
		next := m.AddState()
		lbl := s.Label
		m.AddTransition(cur, lbl, next)
		switch {
		case s.Occ == 0 && pinIterator > 0:
			m.Annotate(next, anfa.QPos{K: pinIterator})
		case s.NeedsPos:
			m.Annotate(next, anfa.QPos{K: s.Occ})
		}
		cur = next
	}
	if ref.Child == embedding.StrChild {
		next := m.AddState()
		m.AddTransition(cur, anfa.TextLabel, next)
		cur = next
		label = strType
	}
	m.Finals[cur] = true
	m.Labels[cur] = label
	return m, nil
}

// textMachine codes the str edge of type b; Fail when b is not
// str-typed.
func (t *Translator) textMachine(b string) (*anfa.Machine, error) {
	if b == strType {
		return failMachine(), nil
	}
	prod, ok := t.emb.Source.Prods[b]
	if !ok || prod.Kind != dtd.KindStr {
		return failMachine(), nil
	}
	return t.pathMachine(embedding.EdgeRef{Parent: b, Child: embedding.StrChild, Occ: 1}, strType, 0)
}

// appendPerLabel concatenates a per-label continuation machine onto
// each final of left (case (2d)): finals labeled B connect by ε to the
// start of cont(B); finals whose continuation fails lose finality.
func (t *Translator) appendPerLabel(left *anfa.Machine, cont func(b string) (*anfa.Machine, error)) (*anfa.Machine, error) {
	m := anfa.NewMachine()
	rl := anfa.Embed(m, left)
	m.Start = rl[left.Start]
	// Group left finals by label.
	byLabel := map[string][]anfa.StateID{}
	for f := range left.Finals {
		b := left.Labels[f]
		byLabel[b] = append(byLabel[b], rl[f])
	}
	for b, finals := range byLabel {
		sub, err := cont(b)
		if err != nil {
			return nil, err
		}
		if !hasFinals(sub) {
			continue
		}
		rs := anfa.Embed(m, sub)
		for _, f := range finals {
			m.AddTransition(f, anfa.Epsilon, rs[sub.Start])
		}
		for f := range sub.Finals {
			m.Finals[rs[f]] = true
			m.Labels[rs[f]] = sub.Labels[f]
		}
	}
	return m, nil
}

// starMachine implements case (2k): iterate the translation of p over
// the source types reachable through it, connecting finals labeled B to
// the (single) embedded copy of Trl(p, B). Every state reached after
// zero or more iterations is final.
func (t *Translator) starMachine(e xpath.Star, a string) (*anfa.Machine, error) {
	m := anfa.NewMachine()
	m.Finals[m.Start] = true
	m.Labels[m.Start] = a

	entry := map[string]anfa.StateID{}
	type finalInfo struct {
		state anfa.StateID
		label string
	}
	var queue []finalInfo
	queue = append(queue, finalInfo{state: m.Start, label: a})
	connected := map[anfa.StateID]bool{}

	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		if connected[fi.state] {
			continue
		}
		connected[fi.state] = true
		b := fi.label
		start, ok := entry[b]
		if !ok {
			if b == strType {
				entry[b] = -1
				start = -1
			} else {
				sub, err := t.local(e.P, b)
				if err != nil {
					return nil, err
				}
				if !hasFinals(sub) {
					entry[b] = -1
					start = -1
				} else {
					rs := anfa.Embed(m, sub)
					start = rs[sub.Start]
					entry[b] = start
					for f := range sub.Finals {
						nf := rs[f]
						m.Finals[nf] = true
						m.Labels[nf] = sub.Labels[f]
						queue = append(queue, finalInfo{state: nf, label: sub.Labels[f]})
					}
				}
			}
		}
		if start >= 0 {
			m.AddTransition(fi.state, anfa.Epsilon, start)
		}
	}
	return m, nil
}

// filterMachine implements cases (2e)-(2j): translate p, then annotate
// a fresh acceptance state per final label with the locally translated
// qualifier. Position qualifiers are handled structurally on label
// steps (see the package comment).
func (t *Translator) filterMachine(e xpath.Filter, a string) (*anfa.Machine, error) {
	if pos, ok := e.Q.(xpath.QPos); ok {
		lbl, isLabel := e.P.(xpath.Label)
		if !isLabel {
			return nil, fmt.Errorf("translate: position() qualifier on non-label step %q is not supported", xpath.String(e.P))
		}
		return t.labelMachine(a, lbl.Name, pos.K)
	}
	left, err := t.local(e.P, a)
	if err != nil {
		return nil, err
	}
	m := anfa.NewMachine()
	rl := anfa.Embed(m, left)
	m.Start = rl[left.Start]
	byLabel := map[string][]anfa.StateID{}
	for f := range left.Finals {
		byLabel[left.Labels[f]] = append(byLabel[left.Labels[f]], rl[f])
	}
	for b, finals := range byLabel {
		q, has, err := t.localQual(e.Q, b)
		if err != nil {
			return nil, err
		}
		nf := m.AddState()
		for _, f := range finals {
			m.AddTransition(f, anfa.Epsilon, nf)
		}
		if has {
			m.Annotate(nf, q)
		}
		m.Finals[nf] = true
		m.Labels[nf] = b
	}
	return m, nil
}

// localQual translates a qualifier at context type b into an
// annotation (cases (2f)-(2j)); has is false for true().
func (t *Translator) localQual(q xpath.Qual, b string) (anfa.Qual, bool, error) {
	switch q := q.(type) {
	case xpath.QTrue:
		return nil, false, nil
	case xpath.QPath:
		x, err := t.registerSub(q.P, b)
		if err != nil {
			return nil, false, err
		}
		return anfa.QName{X: x}, true, nil
	case xpath.QTextEq:
		x, err := t.registerSub(q.P, b)
		if err != nil {
			return nil, false, err
		}
		return anfa.QTextEq{X: x, Val: q.Val}, true, nil
	case xpath.QPos:
		return nil, false, fmt.Errorf("translate: bare position() inside a Boolean qualifier is not supported")
	case xpath.QNot:
		inner, has, err := t.localQual(q.Q, b)
		if err != nil {
			return nil, false, err
		}
		if !has {
			// not(true()): annotate with an always-false test.
			x := t.freshName()
			t.auto.Names[x] = failMachine()
			return anfa.QName{X: x}, true, nil
		}
		return anfa.QNot{Q: inner}, true, nil
	case xpath.QAnd:
		l, hasL, err := t.localQual(q.L, b)
		if err != nil {
			return nil, false, err
		}
		r, hasR, err := t.localQual(q.R, b)
		if err != nil {
			return nil, false, err
		}
		switch {
		case !hasL:
			return r, hasR, nil
		case !hasR:
			return l, true, nil
		default:
			return anfa.QAnd{L: l, R: r}, true, nil
		}
	case xpath.QOr:
		l, hasL, err := t.localQual(q.L, b)
		if err != nil {
			return nil, false, err
		}
		r, hasR, err := t.localQual(q.R, b)
		if err != nil {
			return nil, false, err
		}
		if !hasL || !hasR {
			return nil, false, nil
		}
		return anfa.QOr{L: l, R: r}, true, nil
	}
	return nil, false, fmt.Errorf("translate: unsupported qualifier %T", q)
}

// registerSub translates p at type b into a named sub-machine of the
// automaton under construction.
func (t *Translator) registerSub(p xpath.Expr, b string) (string, error) {
	sub, err := t.local(p, b)
	if err != nil {
		return "", err
	}
	x := t.freshName()
	t.auto.Names[x] = copyMachine(sub)
	return x, nil
}
