// Package anfa implements the annotated nondeterministic finite state
// automata of §4.4: NFAs over element labels whose states may be
// annotated with qualifiers referring, by name, to further ANFAs. An
// ANFA represents a regular XPath (X_R) query; the automaton form keeps
// translated queries polynomial-sized, while converting an automaton
// back to an X_R expression subsumes the EXPTIME-complete NFA-to-regex
// problem (Ehrenfeucht & Zeiger) and is provided only for small
// automata.
package anfa

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/xmltree"
)

// StateID indexes states within one Machine.
type StateID int

// Epsilon and TextLabel are the reserved transition labels for
// ε-transitions and str (text node) transitions.
const (
	Epsilon   = ""
	TextLabel = xmltree.TextLabel
)

// Transition is a labeled edge of a machine.
type Transition struct {
	Label string
	To    StateID
}

// Qual is a state annotation θ(s): a Boolean test on the node at which
// the state is entered. Sub-queries are referenced by name through the
// automaton's ν mapping.
type Qual interface{ isQual() }

type (
	// QName holds when the named sub-ANFA selects at least one node
	// from the annotated node.
	QName struct{ X string }
	// QTextEq holds when the named sub-ANFA selects a text node with
	// value Val.
	QTextEq struct {
		X   string
		Val string
	}
	// QPos holds when the annotated node is the K-th among its parent's
	// children with the same label (the position() of X_R paths).
	QPos struct{ K int }
	// QNot negates.
	QNot struct{ Q Qual }
	// QAnd conjoins.
	QAnd struct{ L, R Qual }
	// QOr disjoins.
	QOr struct{ L, R Qual }
)

func (QName) isQual()   {}
func (QTextEq) isQual() {}
func (QPos) isQual()    {}
func (QNot) isQual()    {}
func (QAnd) isQual()    {}
func (QOr) isQual()     {}

// Machine is one NFA with state annotations.
type Machine struct {
	States int
	Start  StateID
	Finals map[StateID]bool
	Trans  [][]Transition
	Ann    map[StateID]Qual
	// Labels optionally associates each final state with the source
	// element type it represents (the lab() of schema-directed query
	// translation).
	Labels map[StateID]string
}

// NewMachine returns an empty machine with one (start) state.
func NewMachine() *Machine {
	return &Machine{
		States: 1,
		Finals: map[StateID]bool{},
		Trans:  [][]Transition{nil},
		Ann:    map[StateID]Qual{},
		Labels: map[StateID]string{},
	}
}

// AddState appends a fresh state.
func (m *Machine) AddState() StateID {
	id := StateID(m.States)
	m.States++
	m.Trans = append(m.Trans, nil)
	return id
}

// AddTransition adds an edge.
func (m *Machine) AddTransition(from StateID, label string, to StateID) {
	m.Trans[from] = append(m.Trans[from], Transition{Label: label, To: to})
}

// Annotate conjoins q onto the state's annotation.
func (m *Machine) Annotate(s StateID, q Qual) {
	if old, ok := m.Ann[s]; ok {
		m.Ann[s] = QAnd{L: old, R: q}
		return
	}
	m.Ann[s] = q
}

// Embed copies src's states, transitions and annotations into dst and
// returns the state remapping. Finals, labels and the start designation
// are not transferred; callers wire them through the remapping. Name
// references inside annotations are copied verbatim, so src's names
// must live in the same automaton-level name table as dst's.
func Embed(dst, src *Machine) map[StateID]StateID {
	remap := make(map[StateID]StateID, src.States)
	for s := 0; s < src.States; s++ {
		remap[StateID(s)] = dst.AddState()
	}
	for s := 0; s < src.States; s++ {
		ns := remap[StateID(s)]
		for _, t := range src.Trans[s] {
			dst.Trans[ns] = append(dst.Trans[ns], Transition{Label: t.Label, To: remap[t.To]})
		}
		if q, ok := src.Ann[StateID(s)]; ok {
			dst.Ann[ns] = q
		}
	}
	return remap
}

// FinalStates returns the final states in ascending order.
func (m *Machine) FinalStates() []StateID {
	out := make([]StateID, 0, len(m.Finals))
	for s := range m.Finals {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Automaton is an ANFA M_Q = (M, ν): a top-level machine plus the named
// sub-machines its annotations refer to. Names are global to the
// automaton; sub-machine annotations may refer to further names.
type Automaton struct {
	M     *Machine
	Names map[string]*Machine

	// prog memoizes the compiled form (see Program); RemoveUseless
	// and Optimize reset it.
	prog atomic.Pointer[Program]
}

// NewAutomaton wraps a machine with an empty name table.
func NewAutomaton(m *Machine) *Automaton {
	return &Automaton{M: m, Names: map[string]*Machine{}}
}

// Size returns the total number of states plus transitions across the
// top machine and all named sub-machines — the |ANFA| of the paper's
// complexity bounds.
func (a *Automaton) Size() int {
	n := machineSize(a.M)
	for _, m := range a.Names {
		n += machineSize(m)
	}
	return n
}

func machineSize(m *Machine) int {
	n := m.States
	for _, ts := range m.Trans {
		n += len(ts)
	}
	return n
}

// NumStates returns the state count across the top machine and all
// named sub-machines (Size minus the transitions).
func (a *Automaton) NumStates() int {
	n := a.M.States
	for _, m := range a.Names {
		n += m.States
	}
	return n
}

// Clone returns a deep copy sharing no mutable structure with a
// (qualifier trees are immutable values and are shared).
func (a *Automaton) Clone() *Automaton {
	c := &Automaton{M: a.M.Clone(), Names: make(map[string]*Machine, len(a.Names))}
	for n, m := range a.Names {
		c.Names[n] = m.Clone()
	}
	return c
}

// Clone returns a deep copy of m with the same state numbering
// (annotations are immutable values and are shared).
func (m *Machine) Clone() *Machine {
	c := &Machine{
		States: m.States,
		Start:  m.Start,
		Finals: make(map[StateID]bool, len(m.Finals)),
		Trans:  make([][]Transition, len(m.Trans)),
		Ann:    make(map[StateID]Qual, len(m.Ann)),
		Labels: make(map[StateID]string, len(m.Labels)),
	}
	for s, ts := range m.Trans {
		c.Trans[s] = append([]Transition(nil), ts...)
	}
	for s := range m.Finals {
		c.Finals[s] = true
	}
	for s, q := range m.Ann {
		c.Ann[s] = q
	}
	for s, l := range m.Labels {
		c.Labels[s] = l
	}
	return c
}

// Fail returns the automaton accepting nothing: a single start state
// with no transitions and no final states.
func Fail() *Automaton { return NewAutomaton(NewMachine()) }

// IsFail reports whether the top machine has no reachable final state.
func (a *Automaton) IsFail() bool {
	return len(reachable(a.M)) == 0 || !anyFinalReachable(a.M)
}

func anyFinalReachable(m *Machine) bool {
	for s := range reachable(m) {
		if m.Finals[s] {
			return true
		}
	}
	return false
}

func reachable(m *Machine) map[StateID]bool {
	seen := map[StateID]bool{m.Start: true}
	stack := []StateID{m.Start}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range m.Trans[s] {
			if !seen[t.To] {
				seen[t.To] = true
				stack = append(stack, t.To)
			}
		}
	}
	return seen
}

// RemoveUseless prunes states that are unreachable from the start or
// cannot reach a final state (the useless-state removal assumed after
// each construction step in §4.4) — in the top machine and in every
// named sub-machine, so annotations sitting on useless states are
// dropped with their states rather than lingering to keep dead
// sub-machines alive. Each machine's start state is always kept.
// Named machines no live annotation references are then dropped.
func (a *Automaton) RemoveUseless() {
	dropped := 0
	a.M, dropped = removeUselessMachine(a.M)
	for name, m := range a.Names {
		nm, d := removeUselessMachine(m)
		a.Names[name] = nm
		dropped += d
	}
	if dropped > 0 {
		mPruned.Add(uint64(dropped))
	}
	a.pruneNames()
	a.prog.Store(nil)
}

// removeUselessMachine returns m with useless states pruned and
// renumbered, plus the number of states dropped. Annotations and
// labels of dropped states are dropped with them.
func removeUselessMachine(m *Machine) (*Machine, int) {
	fwd := reachable(m)
	// Backward reachability from finals.
	rev := make([][]StateID, m.States)
	for s := 0; s < m.States; s++ {
		for _, t := range m.Trans[s] {
			rev[t.To] = append(rev[t.To], StateID(s))
		}
	}
	useful := map[StateID]bool{}
	var stack []StateID
	for f := range m.Finals {
		if fwd[f] {
			useful[f] = true
			stack = append(stack, f)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[s] {
			if fwd[p] && !useful[p] {
				useful[p] = true
				stack = append(stack, p)
			}
		}
	}
	keep := func(s StateID) bool { return s == m.Start || useful[s] }
	// Renumber.
	remap := make(map[StateID]StateID, m.States)
	next := 0
	for s := 0; s < m.States; s++ {
		if keep(StateID(s)) {
			remap[StateID(s)] = StateID(next)
			next++
		}
	}
	nm := &Machine{
		States: next,
		Finals: map[StateID]bool{},
		Trans:  make([][]Transition, next),
		Ann:    map[StateID]Qual{},
		Labels: map[StateID]string{},
	}
	nm.Start = remap[m.Start]
	for s := 0; s < m.States; s++ {
		ns, ok := remap[StateID(s)]
		if !ok {
			continue
		}
		for _, t := range m.Trans[s] {
			if nt, ok := remap[t.To]; ok {
				nm.Trans[ns] = append(nm.Trans[ns], Transition{Label: t.Label, To: nt})
			}
		}
		if m.Finals[StateID(s)] {
			nm.Finals[ns] = true
		}
		if q, ok := m.Ann[StateID(s)]; ok {
			nm.Ann[ns] = q
		}
		if l, ok := m.Labels[StateID(s)]; ok {
			nm.Labels[ns] = l
		}
	}
	return nm, m.States - next
}

// pruneNames drops named machines no annotation refers to.
func (a *Automaton) pruneNames() {
	used := map[string]bool{}
	var collect func(m *Machine)
	var visitQ func(q Qual)
	visitQ = func(q Qual) {
		switch q := q.(type) {
		case QName:
			if !used[q.X] {
				used[q.X] = true
				if sub := a.Names[q.X]; sub != nil {
					collect(sub)
				}
			}
		case QTextEq:
			if !used[q.X] {
				used[q.X] = true
				if sub := a.Names[q.X]; sub != nil {
					collect(sub)
				}
			}
		case QNot:
			visitQ(q.Q)
		case QAnd:
			visitQ(q.L)
			visitQ(q.R)
		case QOr:
			visitQ(q.L)
			visitQ(q.R)
		}
	}
	collect = func(m *Machine) {
		for _, q := range m.Ann {
			visitQ(q)
		}
	}
	collect(a.M)
	for name := range a.Names {
		if !used[name] {
			delete(a.Names, name)
		}
	}
}

// String renders the automaton for diagnostics.
func (a *Automaton) String() string {
	var b strings.Builder
	writeMachine(&b, "M", a.M)
	names := make([]string, 0, len(a.Names))
	for n := range a.Names {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		writeMachine(&b, n, a.Names[n])
	}
	return b.String()
}

func writeMachine(b *strings.Builder, name string, m *Machine) {
	fmt.Fprintf(b, "%s: start=%d finals=%v\n", name, m.Start, m.FinalStates())
	for s := 0; s < m.States; s++ {
		for _, t := range m.Trans[s] {
			l := t.Label
			if l == Epsilon {
				l = "ε"
			}
			fmt.Fprintf(b, "  %d -%s-> %d\n", s, l, t.To)
		}
		if q, ok := m.Ann[StateID(s)]; ok {
			fmt.Fprintf(b, "  %d: [%s]\n", s, qualString(q))
		}
	}
}

func qualString(q Qual) string {
	switch q := q.(type) {
	case QName:
		return q.X
	case QTextEq:
		return fmt.Sprintf("%s/text() = %q", q.X, q.Val)
	case QPos:
		return fmt.Sprintf("position() = %d", q.K)
	case QNot:
		return "not(" + qualString(q.Q) + ")"
	case QAnd:
		return qualString(q.L) + " and " + qualString(q.R)
	case QOr:
		return qualString(q.L) + " or " + qualString(q.R)
	}
	return "?"
}
