package anfa

import (
	"repro/internal/xmltree"
)

// Eval runs the automaton from the context node and returns the nodes
// reached at final states, deduplicated in first-acceptance order. It
// runs the automaton's memoized compiled program (see Program), the
// way xpath.Eval runs xpath.Compile.
func (a *Automaton) Eval(ctx *xmltree.Node) []*xmltree.Node {
	mEvals.Inc()
	return a.Program().Run(ctx)
}

// EvalInterpreted evaluates the automaton with the reference
// interpreter, bypassing compilation. The interpreter explores
// (state, node) pairs breadth-first — linear in |M|·|T| per machine —
// checking state annotations at the node where the state is entered.
// Position annotations hold when the node is the K-th among its
// parent's same-label children. It exists as the independent oracle
// the compiled Program is differentially tested against (the
// anfa-opt-differential oracle property, FuzzAnfaOptimize);
// production callers should use Eval or Program.
func (a *Automaton) EvalInterpreted(ctx *xmltree.Node) []*xmltree.Node {
	ev := &anfaEval{a: a, memo: map[memoKey]bool{}}
	return ev.run(a.M, ctx)
}

type memoKey struct {
	name string
	node *xmltree.Node
}

type anfaEval struct {
	a    *Automaton
	memo map[memoKey]bool
}

type pair struct {
	state StateID
	node  *xmltree.Node
}

func (ev *anfaEval) run(m *Machine, ctx *xmltree.Node) []*xmltree.Node {
	if m.States == 0 {
		return nil
	}
	active := map[pair]bool{}
	resultSeen := map[*xmltree.Node]bool{}
	var queue []pair
	var result []*xmltree.Node

	push := func(s StateID, n *xmltree.Node) {
		p := pair{state: s, node: n}
		if active[p] {
			return
		}
		if q, ok := m.Ann[s]; ok && !ev.holds(q, n) {
			return
		}
		active[p] = true
		queue = append(queue, p)
		if m.Finals[s] && !resultSeen[n] {
			resultSeen[n] = true
			result = append(result, n)
		}
	}

	push(m.Start, ctx)
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		for _, t := range m.Trans[p.state] {
			switch t.Label {
			case Epsilon:
				push(t.To, p.node)
			case TextLabel:
				for _, c := range p.node.Children {
					if c.IsText() {
						push(t.To, c)
					}
				}
			default:
				for _, c := range p.node.Children {
					if c.Label == t.Label {
						push(t.To, c)
					}
				}
			}
		}
	}
	return result
}

func (ev *anfaEval) holds(q Qual, n *xmltree.Node) bool {
	switch q := q.(type) {
	case QName:
		return len(ev.evalName(q.X, n)) > 0
	case QTextEq:
		for _, m := range ev.evalName(q.X, n) {
			if m.IsText() && m.Text == q.Val {
				return true
			}
		}
		return false
	case QPos:
		return n.ChildPosition() == q.K
	case QNot:
		return !ev.holds(q.Q, n)
	case QAnd:
		return ev.holds(q.L, n) && ev.holds(q.R, n)
	case QOr:
		return ev.holds(q.L, n) || ev.holds(q.R, n)
	}
	return false
}

// evalName runs a named sub-machine at n. Emptiness results are
// memoized per (name, node); the node list itself is recomputed only
// when a QTextEq needs values, which reuses the same path.
func (ev *anfaEval) evalName(x string, n *xmltree.Node) []*xmltree.Node {
	sub, ok := ev.a.Names[x]
	if !ok {
		return nil
	}
	key := memoKey{name: x, node: n}
	if empty, ok := ev.memo[key]; ok && empty {
		return nil
	}
	res := ev.run(sub, n)
	ev.memo[key] = len(res) == 0
	return res
}
