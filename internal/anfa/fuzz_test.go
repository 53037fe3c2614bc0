package anfa_test

import (
	"strings"
	"testing"

	"repro/internal/anfa"
	"repro/internal/guard"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// FuzzAnfaOptimize is the optimizer/compiler fuzz differential: for an
// arbitrary (query, document) pair — first input line the X_R query,
// the rest the XML — the interpreted unoptimized automaton, the
// optimized automaton and both compiled programs must select the same
// node set, and the optimizer must never grow the automaton. A query
// FromExpr refuses must be refused for position() off a label step.
func FuzzAnfaOptimize(f *testing.F) {
	lim := guard.Limits{MaxDepth: 40, MaxInputBytes: 1 << 14, MaxNodes: 2048}
	f.Add("a\n<r><a>x</a><a>y</a></r>")
	f.Add("(a | b/c)*/a\n<r><a>x</a><b><c><a>y</a></c></b></r>")
	f.Add("b[a][position() = 1]/text()\n<r><b><a/>t</b><b><a/>u</b></r>")
	f.Add("a[text() = \"y\"] | b[not(c)]\n<r><a>y</a><b><c/></b><b/></r>")
	f.Add(".//a\n<r><b><a><a/></a></b></r>")
	f.Fuzz(func(t *testing.T, input string) {
		qsrc, xml, ok := strings.Cut(input, "\n")
		if !ok {
			t.Skip()
		}
		q, err := xpath.ParseLimits(qsrc, lim)
		if err != nil {
			t.Skip()
		}
		tree, err := xmltree.ParseLimits(strings.NewReader(xml), lim)
		if err != nil {
			t.Skip()
		}
		dq := xpath.DesugarDesc(q, docLabels(tree.Root))
		base, err := anfa.FromExpr(dq)
		if err != nil {
			// After desugaring, the one query FromExpr refuses puts
			// position() under a filter subject other than a bare label;
			// the error must say so and name the query.
			if msg := err.Error(); !strings.Contains(msg, "position()") || !strings.Contains(msg, xpath.String(dq)) {
				t.Fatalf("FromExpr(%q): unexpected error %v", qsrc, err)
			}
			return
		}
		want := base.EvalInterpreted(tree.Root)

		opt := base.Clone()
		st := anfa.Optimize(opt, anfa.OptOptions{})
		if st.SizeAfter > st.SizeBefore {
			t.Fatalf("optimizer grew the automaton on %q: %d -> %d", qsrc, st.SizeBefore, st.SizeAfter)
		}
		if got := opt.EvalInterpreted(tree.Root); !sameNodes(want, got) {
			t.Fatalf("optimized EvalInterpreted diverges on %q over %q: got %v, want %v\nbefore:\n%s\nafter:\n%s",
				qsrc, xml, idSet(got), idSet(want), base, opt)
		}
		if got := opt.Program().Run(tree.Root); !sameNodes(want, got) {
			t.Fatalf("optimized compiled Run diverges on %q over %q: got %v, want %v\nautomaton:\n%s",
				qsrc, xml, idSet(got), idSet(want), opt)
		}
		if got := base.Program().Run(tree.Root); !sameNodes(want, got) {
			t.Fatalf("unoptimized compiled Run diverges on %q over %q: got %v, want %v",
				qsrc, xml, idSet(got), idSet(want))
		}
	})
}

// docLabels collects the distinct element labels of the document, the
// alphabet DesugarDesc expands `.//` steps over.
func docLabels(root *xmltree.Node) []string {
	seen := map[string]bool{}
	var labels []string
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if !n.IsText() && !seen[n.Label] {
			seen[n.Label] = true
			labels = append(labels, n.Label)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return labels
}
