package xpath

import (
	"testing"

	"repro/internal/xmltree"
)

// TestDescInQualifier: // inside a qualifier evaluates over all
// descendants.
func TestDescInQualifier(t *testing.T) {
	tr, _ := xmltree.ParseString(`<r><a><b><c/></b></a><a/></r>`)
	got := Eval(MustParse("a[.//c]"), tr.Root)
	if len(got) != 1 {
		t.Errorf("a[.//c] selected %d, want 1", len(got))
	}
}

// TestFilterOnStarResult: positions over a star's result list follow
// first-reached order.
func TestFilterOnStarResult(t *testing.T) {
	tr, _ := xmltree.ParseString(`<r><a><a/></a></r>`)
	got := Eval(MustParse("(a*)[position() = 2]"), tr.Root)
	// a* from r = {r, a, a/a}; position 2 is the outer a.
	if len(got) != 1 || got[0] != tr.Root.Children[0] {
		t.Errorf("(a*)[2] = %v", got)
	}
}

// TestSeqOfUnionOf covers the constructors.
func TestSeqOfUnionOf(t *testing.T) {
	if _, ok := SeqOf().(Empty); !ok {
		t.Error("SeqOf() should be ε")
	}
	e := SeqOf(Label{Name: "a"}, Label{Name: "b"}, Text{})
	if String(e) != "a/b/text()" {
		t.Errorf("SeqOf = %s", String(e))
	}
	u, err := UnionOf(Label{Name: "a"}, Label{Name: "b"})
	if err != nil {
		t.Fatalf("UnionOf: %v", err)
	}
	if String(u) != "a | b" {
		t.Errorf("UnionOf = %s", String(u))
	}
	if _, err := UnionOf(); err == nil {
		t.Error("UnionOf() should error")
	}
}

// TestPathWithTextClone: WithText does not mutate the receiver.
func TestPathWithTextClone(t *testing.T) {
	p := NewPath("a", "b")
	q := p.WithText()
	if p.Text {
		t.Error("WithText mutated the receiver")
	}
	if !q.Text || q.Len() != 2 {
		t.Errorf("WithText result = %v", q)
	}
}

// TestDesugarNoop: expressions without // are returned unchanged.
func TestDesugarNoop(t *testing.T) {
	e := MustParse("a/b[c]")
	if got := DesugarDesc(e, []string{"a", "b", "c"}); String(got) != String(e) {
		t.Errorf("DesugarDesc changed a //-free query: %s", String(got))
	}
	if got := DesugarDesc(MustParse("a//b"), nil); String(got) != "a//b" {
		t.Error("empty alphabet should leave // untouched")
	}
}
