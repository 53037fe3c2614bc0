package dtd

import (
	"strings"
	"testing"
)

// fig1ClassDTD is the class DTD S0 of the paper's Figure 1(a).
func fig1ClassDTD(t *testing.T) *DTD {
	t.Helper()
	d, err := New("db",
		D("db", Star("class")),
		D("class", Concat("cno", "title", "type")),
		D("cno", Str()),
		D("title", Str()),
		D("type", Disj("regular", "project")),
		D("regular", Concat("prereq")),
		D("project", Str()),
		D("prereq", Star("class")),
	)
	if err != nil {
		t.Fatalf("building Fig.1(a) DTD: %v", err)
	}
	return d
}

func TestNewAndCheck(t *testing.T) {
	d := fig1ClassDTD(t)
	if d.Size() != 8 {
		t.Errorf("Size() = %d, want 8", d.Size())
	}
	if got := d.Prods["type"].Kind; got != KindDisj {
		t.Errorf("type production kind = %v, want disjunction", got)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name string
		root string
		defs []Def
		want string
	}{
		{"missing root", "r", []Def{D("a", Empty())}, "root type"},
		{"empty root", "", []Def{D("a", Empty())}, "empty root"},
		{"undefined child", "r", []Def{D("r", Concat("missing"))}, "undefined child"},
		{"dup disjunct", "r", []Def{D("r", Disj("a", "a")), D("a", Empty())}, "repeats child"},
		{"small disjunction", "r", []Def{D("r", Disj("a")), D("a", Empty())}, "at least two"},
		{"empty concat", "r", []Def{D("r", Concat())}, "no children"},
		{"str with children", "r", []Def{D("r", Production{Kind: KindStr, Children: []string{"a"}}), D("a", Empty())}, "must have no children"},
		{"duplicate definition", "r", []Def{D("r", Empty()), D("r", Empty())}, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.root, tc.defs...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New() error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestIsRecursive(t *testing.T) {
	if d := fig1ClassDTD(t); !d.IsRecursive() {
		t.Error("Fig.1(a) class DTD should be recursive (class -> type -> regular -> prereq -> class)")
	}
	flat := MustNew("r", D("r", Concat("a")), D("a", Str()))
	if flat.IsRecursive() {
		t.Error("flat DTD reported recursive")
	}
	self := MustNew("r", D("r", Disj("a", "b")), D("a", Star("r")), D("b", Empty()))
	if !self.IsRecursive() {
		t.Error("r -> a -> r cycle not detected")
	}
}

func TestProductiveAndConsistent(t *testing.T) {
	// x is unproductive: x -> (x, x) can never terminate.
	d := MustNew("r",
		D("r", Disj("a", "x")),
		D("a", Str()),
		D("x", Concat("x", "x")),
	)
	prod := d.Productive()
	if prod["x"] {
		t.Error("x should be unproductive")
	}
	if !prod["r"] || !prod["a"] {
		t.Error("r and a should be productive")
	}
	c, err := d.Consistent()
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if _, ok := c.Prods["x"]; ok {
		t.Error("useless type x survived Consistent()")
	}
	// The disjunction collapses to a single productive disjunct.
	if p := c.Prods["r"]; p.Kind != KindConcat || len(p.Children) != 1 || p.Children[0] != "a" {
		t.Errorf("r production after trim = %v, want (a)", p)
	}
	if !c.IsConsistent() {
		t.Error("trimmed DTD not reported consistent")
	}
	if d.IsConsistent() {
		t.Error("original DTD wrongly reported consistent")
	}
}

func TestConsistentStarOverUnproductive(t *testing.T) {
	d := MustNew("r",
		D("r", Star("x")),
		D("x", Concat("x")),
	)
	c, err := d.Consistent()
	if err != nil {
		t.Fatalf("Consistent: %v", err)
	}
	if p := c.Prods["r"]; p.Kind != KindEmpty {
		t.Errorf("r production = %v, want EMPTY (star over unproductive child)", p)
	}
}

func TestConsistentUnproductiveRoot(t *testing.T) {
	d := MustNew("r", D("r", Concat("r")))
	if _, err := d.Consistent(); err == nil {
		t.Error("Consistent() should fail when the root is unproductive")
	}
}

func TestMinDepth(t *testing.T) {
	d := fig1ClassDTD(t)
	depth := d.MinDepth()
	if depth["db"] != 1 {
		t.Errorf("MinDepth(db) = %d, want 1 (star: zero children)", depth["db"])
	}
	if depth["cno"] != 1 {
		t.Errorf("MinDepth(cno) = %d, want 1", depth["cno"])
	}
	// class -> {cno,title,type}; type -> project (depth 1); so class depth 3.
	if depth["class"] != 3 {
		t.Errorf("MinDepth(class) = %d, want 3", depth["class"])
	}
}

func TestChildEdgesOccurrences(t *testing.T) {
	d := MustNew("r", D("r", Concat("a", "b", "a")), D("a", Str()), D("b", Str()))
	edges := d.ChildEdges("r")
	if len(edges) != 3 {
		t.Fatalf("got %d edges, want 3", len(edges))
	}
	if edges[0].Occ != 1 || edges[2].Occ != 2 {
		t.Errorf("occurrence labels = %d,%d, want 1,2", edges[0].Occ, edges[2].Occ)
	}
	if edges[2].Index != 2 {
		t.Errorf("second 'a' Index = %d, want 2", edges[2].Index)
	}
}

func TestEdgeKinds(t *testing.T) {
	d := fig1ClassDTD(t)
	if e := d.ChildEdges("db")[0]; e.Kind != EdgeSTAR {
		t.Errorf("db->class edge kind = %v, want STAR", e.Kind)
	}
	if e := d.ChildEdges("type")[0]; e.Kind != EdgeOR {
		t.Errorf("type->regular edge kind = %v, want OR", e.Kind)
	}
	if e := d.ChildEdges("class")[0]; e.Kind != EdgeAND {
		t.Errorf("class->cno edge kind = %v, want AND", e.Kind)
	}
	if got := len(d.ChildEdges("cno")); got != 0 {
		t.Errorf("str type has %d edges, want 0", got)
	}
}

func TestCloneAndEqual(t *testing.T) {
	d := fig1ClassDTD(t)
	c := d.Clone()
	if !d.Equal(c) {
		t.Error("clone not Equal to original")
	}
	c.Prods["cno"] = Empty()
	if d.Equal(c) {
		t.Error("Equal ignores production change")
	}
	if d.Prods["cno"].Kind != KindStr {
		t.Error("Clone shares production storage with original")
	}
}

func TestStringRoundTrip(t *testing.T) {
	d := fig1ClassDTD(t)
	text := d.String()
	back, err := Parse(text, "db")
	if err != nil {
		t.Fatalf("Parse(String()): %v", err)
	}
	if !d.Equal(back) {
		t.Errorf("round trip mismatch:\noriginal:\n%s\nparsed:\n%s", d, back)
	}
}
