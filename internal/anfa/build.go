package anfa

import (
	"fmt"

	"repro/internal/xpath"
)

// FromExpr constructs the ANFA M_Q representing an X_R query
// (§4.4 cases (a)–(i)). Sub-qualifiers become named sub-machines; names
// are unique within the returned automaton. Descendant-or-self (the X
// fragment's //) is not representable directly; desugar it first with
// xpath.DesugarDesc.
//
// A position() test counts the context node among its same-label
// siblings, which is XPath's position only when the filtered step is a
// bare label. A query that puts position() under any other subject,
// such as (a | b)[position() = 7] or a[q][position() = 3], is an error
// naming the query.
func FromExpr(e xpath.Expr) (*Automaton, error) {
	b := &builder{a: NewAutomaton(NewMachine()), query: e}
	// Replace the initial 1-state machine with the compiled fragment.
	m := b.a.M
	f, err := b.compile(m, e)
	if err != nil {
		return nil, err
	}
	m.Start = f.start
	for _, s := range f.finals {
		m.Finals[s] = true
	}
	return b.a, nil
}

type builder struct {
	a     *Automaton
	next  int
	query xpath.Expr
}

func (b *builder) freshName() string {
	b.next++
	return fmt.Sprintf("X%d", b.next)
}

// frag is a sub-automaton within one machine: a start state and the
// final states of the fragment.
type frag struct {
	start  StateID
	finals []StateID
}

func (b *builder) compile(m *Machine, e xpath.Expr) (frag, error) {
	switch e := e.(type) {
	case xpath.Empty:
		s := m.AddState()
		return frag{start: s, finals: []StateID{s}}, nil
	case xpath.Label:
		s, f := m.AddState(), m.AddState()
		m.AddTransition(s, e.Name, f)
		return frag{start: s, finals: []StateID{f}}, nil
	case xpath.Text:
		s, f := m.AddState(), m.AddState()
		m.AddTransition(s, TextLabel, f)
		return frag{start: s, finals: []StateID{f}}, nil
	case xpath.Seq:
		f1, err := b.compile(m, e.L)
		if err != nil {
			return frag{}, err
		}
		f2, err := b.compile(m, e.R)
		if err != nil {
			return frag{}, err
		}
		for _, s := range f1.finals {
			m.AddTransition(s, Epsilon, f2.start)
		}
		return frag{start: f1.start, finals: f2.finals}, nil
	case xpath.Union:
		f1, err := b.compile(m, e.L)
		if err != nil {
			return frag{}, err
		}
		f2, err := b.compile(m, e.R)
		if err != nil {
			return frag{}, err
		}
		s := m.AddState()
		m.AddTransition(s, Epsilon, f1.start)
		m.AddTransition(s, Epsilon, f2.start)
		return frag{start: s, finals: append(f1.finals, f2.finals...)}, nil
	case xpath.Star:
		f1, err := b.compile(m, e.P)
		if err != nil {
			return frag{}, err
		}
		s := m.AddState()
		m.AddTransition(s, Epsilon, f1.start)
		for _, f := range f1.finals {
			m.AddTransition(f, Epsilon, s)
		}
		return frag{start: s, finals: []StateID{s}}, nil
	case xpath.Filter:
		if _, bare := e.P.(xpath.Label); !bare && hasPos(e.Q) {
			return frag{}, fmt.Errorf("anfa: query %s: position() filters %s, not a bare label step",
				xpath.String(b.query), xpath.String(e.P))
		}
		f1, err := b.compile(m, e.P)
		if err != nil {
			return frag{}, err
		}
		q, has, err := CompileQual(e.Q, b.subMachine, func(k int) (Qual, error) { return QPos{K: k}, nil })
		if err != nil {
			return frag{}, err
		}
		if !has {
			return f1, nil
		}
		// A fresh annotated acceptance state: the qualifier gates
		// acceptance (and continuation in a sequence) without
		// interfering with loop passage through the old finals.
		nf := m.AddState()
		for _, f := range f1.finals {
			m.AddTransition(f, Epsilon, nf)
		}
		m.Annotate(nf, q)
		return frag{start: f1.start, finals: []StateID{nf}}, nil
	case xpath.Desc:
		return frag{}, fmt.Errorf("anfa: descendant-or-self is not an X_R construct; desugar with xpath.DesugarDesc first")
	}
	return frag{}, fmt.Errorf("anfa: unsupported expression %T", e)
}

// CompileQual translates an X_R qualifier into a state annotation
// (§4.4 cases (e)–(j)), the one rule shared by FromExpr and
// schema-directed translation. has is false for true(), which needs no
// annotation. sub registers the machine of a qualifier path under a
// fresh name and returns the name; sub(nil) registers one that selects
// nothing, the test not(true()) becomes. pos answers position() = k.
func CompileQual(q xpath.Qual, sub func(p xpath.Expr) (string, error), pos func(k int) (Qual, error)) (Qual, bool, error) {
	switch q := q.(type) {
	case xpath.QTrue:
		return nil, false, nil
	case xpath.QPath:
		x, err := sub(q.P)
		if err != nil {
			return nil, false, err
		}
		return QName{X: x}, true, nil
	case xpath.QTextEq:
		x, err := sub(q.P)
		if err != nil {
			return nil, false, err
		}
		return QTextEq{X: x, Val: q.Val}, true, nil
	case xpath.QPos:
		p, err := pos(q.K)
		if err != nil {
			return nil, false, err
		}
		return p, true, nil
	case xpath.QNot:
		inner, has, err := CompileQual(q.Q, sub, pos)
		if err != nil {
			return nil, false, err
		}
		if !has {
			x, err := sub(nil)
			if err != nil {
				return nil, false, err
			}
			return QName{X: x}, true, nil
		}
		return QNot{Q: inner}, true, nil
	case xpath.QAnd:
		l, hasL, err := CompileQual(q.L, sub, pos)
		if err != nil {
			return nil, false, err
		}
		r, hasR, err := CompileQual(q.R, sub, pos)
		if err != nil {
			return nil, false, err
		}
		switch {
		case !hasL:
			return r, hasR, nil
		case !hasR:
			return l, true, nil
		default:
			return QAnd{L: l, R: r}, true, nil
		}
	case xpath.QOr:
		l, hasL, err := CompileQual(q.L, sub, pos)
		if err != nil {
			return nil, false, err
		}
		r, hasR, err := CompileQual(q.R, sub, pos)
		if err != nil {
			return nil, false, err
		}
		if !hasL || !hasR {
			// One side is true(): the disjunction always holds.
			return nil, false, nil
		}
		return QOr{L: l, R: r}, true, nil
	}
	return nil, false, fmt.Errorf("anfa: unsupported qualifier %T", q)
}

// hasPos reports whether a qualifier tests position() itself, outside
// the paths it holds (their filters are checked when they compile).
func hasPos(q xpath.Qual) bool {
	switch q := q.(type) {
	case xpath.QPos:
		return true
	case xpath.QNot:
		return hasPos(q.Q)
	case xpath.QAnd:
		return hasPos(q.L) || hasPos(q.R)
	case xpath.QOr:
		return hasPos(q.L) || hasPos(q.R)
	}
	return false
}

// subMachine compiles p into a named sub-machine; a nil p registers
// the machine that selects nothing.
func (b *builder) subMachine(p xpath.Expr) (string, error) {
	sub := NewMachine()
	if p != nil {
		f, err := b.compile(sub, p)
		if err != nil {
			return "", err
		}
		sub.Start = f.start
		for _, s := range f.finals {
			sub.Finals[s] = true
		}
	}
	x := b.freshName()
	b.a.Names[x] = sub
	return x, nil
}
