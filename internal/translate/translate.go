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
// Qualifiers become state annotations through anfa.CompileQual, the
// rule anfa.FromExpr builds M_Q with; translation hands it Trl(p, b) as
// the named sub-machine of each qualifier path p at final label b.
// Final labels and states are visited in sorted order, so a query's
// automaton, and its ToRegex text, are the same on every run.
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
	"sort"

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
	// RemoveUseless rebuilds every machine of the automaton, so the
	// memoized machines installed here and as named sub-machines are
	// never mutated.
	t.auto.M = m
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

func (t *Translator) freshName() string {
	t.next++
	return fmt.Sprintf("T%d", t.next)
}

// selfMachine is the one-state machine selecting the context node of
// type a (case (2a)).
func selfMachine(a string) *anfa.Machine {
	m := anfa.NewMachine()
	m.Finals[m.Start] = true
	m.Labels[m.Start] = a
	return m
}

// graft embeds sub into m, links each state of from to sub's start by
// ε, and makes sub's finals final in m under their labels. It returns
// sub's start in m.
func graft(m, sub *anfa.Machine, from ...anfa.StateID) anfa.StateID {
	remap := anfa.Embed(m, sub)
	start := remap[sub.Start]
	for _, f := range from {
		m.AddTransition(f, anfa.Epsilon, start)
	}
	for f := range sub.Finals {
		m.Finals[remap[f]] = true
		m.Labels[remap[f]] = sub.Labels[f]
	}
	return start
}

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
		return selfMachine(a), nil

	case xpath.Label:
		// Case (2b): the union of the paths mapped from the (A, B)
		// edges; Fail when B is not a child of A.
		return t.labelMachine(a, e.Name, 0)

	case xpath.Text:
		return t.textMachine(a)

	case xpath.Seq:
		// Case (2d), p/text() included: translate p, then append the
		// translation of the rest at each final label.
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
		graft(m, l, m.Start)
		graft(m, r, m.Start)
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
		return anfa.NewMachine(), nil
	}
	prod, ok := t.emb.Source.Prods[a]
	if !ok {
		return anfa.NewMachine(), nil
	}
	n := prod.Occurrences(b)
	if n == 0 {
		return anfa.NewMachine(), nil
	}
	if prod.Kind == dtd.KindStar && occ > 0 {
		// B[position() = k] under a star parent: the iterator step is
		// pinned to the k-th child.
		return t.pathMachine(embedding.EdgeRef{Parent: a, Child: b, Occ: 1}, b, occ)
	}
	if occ > n {
		return anfa.NewMachine(), nil
	}
	if occ > 0 || n == 1 {
		return t.pathMachine(embedding.EdgeRef{Parent: a, Child: b, Occ: max(occ, 1)}, b, 0)
	}
	m := anfa.NewMachine()
	for o := 1; o <= n; o++ {
		pm, err := t.pathMachine(embedding.EdgeRef{Parent: a, Child: b, Occ: o}, b, 0)
		if err != nil {
			return nil, err
		}
		graft(m, pm, m.Start)
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
		return anfa.NewMachine(), nil
	}
	prod, ok := t.emb.Source.Prods[b]
	if !ok || prod.Kind != dtd.KindStr {
		return anfa.NewMachine(), nil
	}
	return t.pathMachine(embedding.EdgeRef{Parent: b, Child: embedding.StrChild, Occ: 1}, strType, 0)
}

// appendPerLabel concatenates a per-label continuation machine onto
// each final of left (case (2d)): finals labeled B connect by ε to the
// start of cont(B); finals whose continuation fails lose finality.
// Labels are visited in sorted order and each label's finals in
// ascending order, so state numbering does not follow map iteration.
func (t *Translator) appendPerLabel(left *anfa.Machine, cont func(b string) (*anfa.Machine, error)) (*anfa.Machine, error) {
	m := left.Clone()
	clear(m.Finals)
	clear(m.Labels)
	byLabel := map[string][]anfa.StateID{}
	for _, f := range left.FinalStates() {
		byLabel[left.Labels[f]] = append(byLabel[left.Labels[f]], f)
	}
	labels := make([]string, 0, len(byLabel))
	for b := range byLabel {
		labels = append(labels, b)
	}
	sort.Strings(labels)
	for _, b := range labels {
		sub, err := cont(b)
		if err != nil {
			return nil, err
		}
		if len(sub.Finals) > 0 {
			graft(m, sub, byLabel[b]...)
		}
	}
	return m, nil
}

// starMachine implements case (2k): iterate the translation of p over
// the source types reachable through it, connecting finals labeled B to
// the (single) embedded copy of Trl(p, B). Every state reached after
// zero or more iterations is final. Finals are visited in ascending
// order, grafted ones included, so state numbering is deterministic.
func (t *Translator) starMachine(e xpath.Star, a string) (*anfa.Machine, error) {
	m := selfMachine(a)
	// entry is the start of each label's embedded copy; -1 when the
	// label cannot iterate (text, or a translation that fails).
	entry := map[string]anfa.StateID{strType: -1}
	for s := anfa.StateID(0); int(s) < m.States; s++ {
		if !m.Finals[s] {
			continue
		}
		b := m.Labels[s]
		start, ok := entry[b]
		if !ok {
			sub, err := t.local(e.P, b)
			if err != nil {
				return nil, err
			}
			start = -1
			if len(sub.Finals) > 0 {
				start = graft(m, sub)
			}
			entry[b] = start
		}
		if start >= 0 {
			m.AddTransition(s, anfa.Epsilon, start)
		}
	}
	return m, nil
}

// filterMachine implements cases (2e)-(2j): translate p, then append a
// fresh acceptance state per final label, annotated with the qualifier
// compiled at that label by anfa.CompileQual. Position qualifiers are
// handled structurally on label steps (see the package comment).
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
	return t.appendPerLabel(left, func(b string) (*anfa.Machine, error) {
		q, has, err := anfa.CompileQual(e.Q, t.qualPath(b), boolPos)
		if err != nil {
			return nil, err
		}
		m := selfMachine(b)
		if has {
			m.Annotate(m.Start, q)
		}
		return m, nil
	})
}

// qualPath returns anfa.CompileQual's sub at context type b: it
// registers Trl(p, b), or for a nil p the machine selecting nothing,
// as a named sub-machine of the automaton under construction.
func (t *Translator) qualPath(b string) func(p xpath.Expr) (string, error) {
	return func(p xpath.Expr) (string, error) {
		m := anfa.NewMachine()
		if p != nil {
			var err error
			if m, err = t.local(p, b); err != nil {
				return "", err
			}
		}
		x := t.freshName()
		t.auto.Names[x] = m
		return x, nil
	}
}

// boolPos is anfa.CompileQual's pos: position() is translated only
// directly on a label step (see the package comment).
func boolPos(int) (anfa.Qual, error) {
	return nil, fmt.Errorf("translate: bare position() inside a Boolean qualifier is not supported")
}
