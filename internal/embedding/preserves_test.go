package embedding

import (
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// TestPreserves: idM(got) must equal want as node sets. Nodes outside
// idM's domain, extra images and missing images each fail, naming the
// offending node.
func TestPreserves(t *testing.T) {
	src, tgt := &xmltree.Tree{}, &xmltree.Tree{}
	a, b, c := src.NewElement("a"), src.NewElement("b"), src.NewElement("c")
	a2, b2, c2, fill := tgt.NewElement("a2"), tgt.NewElement("b2"), tgt.NewElement("c2"), tgt.NewElement("fill")
	r := &Result{Tree: tgt, IDM: map[xmltree.NodeID]xmltree.NodeID{a2.ID: a.ID, b2.ID: b.ID, c2.ID: c.ID}}
	nodes := func(ns ...*xmltree.Node) []*xmltree.Node { return ns }
	for _, tc := range []struct {
		name      string
		want, got []*xmltree.Node
		err       string // "" when preserved
	}{
		{"both empty", nil, nil, ""},
		{"equal", nodes(a, b), nodes(a2, b2), ""},
		{"other order", nodes(a, b), nodes(b2, a2), ""},
		{"repeated answer node", nodes(a), nodes(a2, a2), ""},
		{"outside idM's domain", nodes(a), nodes(a2, fill), `"fill" is outside idM's domain`},
		{"extra image", nodes(a), nodes(a2, c2), `"c2" maps to source node`},
		{"missing image", nodes(a, b), nodes(a2), `"b" has no image in the translated answer`},
		{"empty translated answer", nodes(c), nil, `"c" has no image`},
		{"empty source answer", nil, nodes(b2), `"b2" maps to source node`},
	} {
		err := r.Preserves(tc.want, tc.got)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: Preserves = %v, want nil", tc.name, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: Preserves = %v, want an error containing %q", tc.name, err, tc.err)
		}
	}
}
