package xpath

import (
	"repro/internal/xmltree"
)

// Eval evaluates the expression at the context node and returns the
// selected nodes in first-reached order without duplicates. Text nodes
// appear in the result when the expression contains text() steps; their
// string values are the observable values of the paper's semantics (use
// Strings to extract them).
//
// Eval compiles the expression and runs the compiled program, so
// one-shot callers share the pooled-scratch fast path; repeated
// evaluation of the same query should Compile once and Run many
// times to amortize the (small) compilation cost too.
func Eval(e Expr, ctx *xmltree.Node) []*xmltree.Node {
	return Compile(e).Run(ctx)
}

// EvalInterpreted evaluates the expression with the reference
// tree-walking interpreter, bypassing compilation. It exists as the
// independent oracle the compiled evaluator is differentially tested
// against (the conformance harness's compiled-differential property);
// production callers should use Eval or Compile.
func EvalInterpreted(e Expr, ctx *xmltree.Node) []*xmltree.Node {
	ev := &evaluator{}
	return ev.eval(e, []*xmltree.Node{ctx})
}

// Strings returns the values of the text nodes in a result set, in
// order.
func Strings(nodes []*xmltree.Node) []string {
	var out []string
	for _, n := range nodes {
		if n.IsText() {
			out = append(out, n.Text)
		}
	}
	return out
}

// IDs returns the node ids of a result set, in order.
func IDs(nodes []*xmltree.Node) []xmltree.NodeID {
	out := make([]xmltree.NodeID, len(nodes))
	for i, n := range nodes {
		out[i] = n.ID
	}
	return out
}

type evaluator struct{}

// eval computes the set image of the expression over the node set,
// deduplicated in first-reached order.
func (ev *evaluator) eval(e Expr, ctxs []*xmltree.Node) []*xmltree.Node {
	switch e := e.(type) {
	case Empty:
		return dedupe(ctxs)
	case Label:
		var out []*xmltree.Node
		for _, c := range ctxs {
			for _, ch := range c.Children {
				if ch.Label == e.Name {
					out = append(out, ch)
				}
			}
		}
		return dedupe(out)
	case Text:
		var out []*xmltree.Node
		for _, c := range ctxs {
			for _, ch := range c.Children {
				if ch.IsText() {
					out = append(out, ch)
				}
			}
		}
		return dedupe(out)
	case Seq:
		return ev.eval(e.R, ev.eval(e.L, ctxs))
	case Desc:
		mid := ev.eval(e.L, ctxs)
		var all []*xmltree.Node
		for _, n := range mid {
			collectDescOrSelf(n, &all)
		}
		return ev.eval(e.R, dedupe(all))
	case Union:
		l := ev.eval(e.L, ctxs)
		r := ev.eval(e.R, ctxs)
		out := make([]*xmltree.Node, 0, len(l)+len(r))
		out = append(out, l...)
		out = append(out, r...)
		return dedupe(out)
	case Star:
		result := dedupe(ctxs)
		seen := make(map[*xmltree.Node]bool, len(result))
		for _, n := range result {
			seen[n] = true
		}
		frontier := append([]*xmltree.Node(nil), result...)
		for len(frontier) > 0 {
			next := ev.eval(e.P, frontier)
			frontier = nil
			for _, n := range next {
				if !seen[n] {
					seen[n] = true
					result = append(result, n)
					frontier = append(frontier, n)
				}
			}
		}
		return result
	case Filter:
		var out []*xmltree.Node
		for _, c := range ctxs {
			sel := ev.eval(e.P, []*xmltree.Node{c})
			for i, n := range sel {
				if ev.holds(e.Q, n, i+1) {
					out = append(out, n)
				}
			}
		}
		return dedupe(out)
	}
	return nil
}

// holds evaluates a qualifier at node n, where pos is n's 1-based
// position in the filtered selection (the position() value).
func (ev *evaluator) holds(q Qual, n *xmltree.Node, pos int) bool {
	switch q := q.(type) {
	case QTrue:
		return true
	case QPath:
		return len(ev.eval(q.P, []*xmltree.Node{n})) > 0
	case QTextEq:
		for _, m := range ev.eval(q.P, []*xmltree.Node{n}) {
			if m.IsText() && m.Text == q.Val {
				return true
			}
		}
		return false
	case QPos:
		return pos == q.K
	case QNot:
		return !ev.holds(q.Q, n, pos)
	case QAnd:
		return ev.holds(q.L, n, pos) && ev.holds(q.R, n, pos)
	case QOr:
		return ev.holds(q.L, n, pos) || ev.holds(q.R, n, pos)
	}
	return false
}

func collectDescOrSelf(n *xmltree.Node, out *[]*xmltree.Node) {
	*out = append(*out, n)
	for _, c := range n.Children {
		collectDescOrSelf(c, out)
	}
}

// smallDedupe is the result-set size up to which deduplication scans
// linearly instead of building a set: below it the quadratic scan is
// both allocation-free and faster than map/bitset bookkeeping.
const smallDedupe = 8

func dedupe(nodes []*xmltree.Node) []*xmltree.Node {
	if len(nodes) <= 1 {
		return nodes
	}
	if len(nodes) <= smallDedupe {
		// Small sets: detect duplicates by scanning; the common
		// duplicate-free case returns the input without allocating.
		dup := -1
	scan:
		for i := 1; i < len(nodes); i++ {
			for j := 0; j < i; j++ {
				if nodes[i] == nodes[j] {
					dup = i
					break scan
				}
			}
		}
		if dup < 0 {
			return nodes
		}
		out := make([]*xmltree.Node, 0, len(nodes)-1)
		out = append(out, nodes[:dup]...)
		for _, n := range nodes[dup+1:] {
			seen := false
			for _, m := range out {
				if m == n {
					seen = true
					break
				}
			}
			if !seen {
				out = append(out, n)
			}
		}
		return out
	}
	seen := make(map[*xmltree.Node]bool, len(nodes))
	out := nodes[:0:0]
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
