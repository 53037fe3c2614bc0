package xpath

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dtd"
	"repro/internal/xmltree"
)

func TestParseStringRoundTrip(t *testing.T) {
	cases := []string{
		".",
		"a",
		"a/b/c",
		"a | b",
		"(a | b)/c",
		"a*",
		"(a/b)*",
		"a/text()",
		"a[b/c]",
		"a[position() = 2]",
		"a[text() = \"CS331\"]",
		"a[b/text() = \"x\"]/c",
		"a[not(b) and (c or position() = 1)]",
		"courses/current/course[basic/cno/text() = \"CS331\"]/(category/mandatory/regular/required/prereq/course)*",
		"class[cno/text() = \"CS331\"]/(type/regular/prereq/class)*",
		"a[true()]",
		"a//b",
		"a//b/c | d",
		"(a/(b | c))*",
		// Literals containing the other quote kind: the grammar has no
		// escapes, so the printer must switch delimiters (fuzz
		// regression 73d91dd5e50593ac — strconv.Quote emitted a
		// backslash escape the parser rejects).
		`a[text() = '"']`,
		`a[text() = "it's"]`,
	}
	for _, src := range cases {
		t.Run(src, func(t *testing.T) {
			e, err := Parse(src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", src, err)
			}
			printed := String(e)
			back, err := Parse(printed)
			if err != nil {
				t.Fatalf("Parse(String(e)) = Parse(%q): %v", printed, err)
			}
			if !reflect.DeepEqual(e, back) {
				t.Errorf("round trip mismatch:\n src %q\n out %q\n reparse %#v vs %#v", src, printed, e, back)
			}
		})
	}
}

func TestParseUnicodeSyntax(t *testing.T) {
	e, err := Parse("a ∪ b")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, ok := e.(Union); !ok {
		t.Errorf("∪ did not parse to Union: %#v", e)
	}
	if e2, err := Parse("ε/a"); err != nil {
		t.Errorf("ε parse: %v", err)
	} else if _, ok := e2.(Seq).L.(Empty); !ok {
		t.Errorf("ε did not parse to Empty: %#v", e2)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "a/", "a[", "a[b", "a[position()]", "a[position() = x]",
		"(a", "a]", "a[b = ]", "a[. = \"x\"]", "a[b = \"x\"]", "a b",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestTextEqRequiresTextTail(t *testing.T) {
	if _, err := Parse(`a[b/text() = "x"]`); err != nil {
		t.Errorf("valid comparison rejected: %v", err)
	}
	if _, err := Parse(`a[b = "x"]`); err == nil || !strings.Contains(err.Error(), "text()") {
		t.Errorf("comparison without text() tail: err = %v", err)
	}
}

// evalDoc builds the recurring test document.
//
//	<r> <a>x</a> <a>y</a> <b> <a>z</a> <c/> </b> </r>
func evalDoc(t *testing.T) *xmltree.Tree {
	t.Helper()
	tr, err := xmltree.ParseString(`<r><a>x</a><a>y</a><b><a>z</a><c/></b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func labels(nodes []*xmltree.Node) string {
	var out []string
	for _, n := range nodes {
		if n.IsText() {
			out = append(out, "'"+n.Text+"'")
		} else {
			out = append(out, n.Label)
		}
	}
	return strings.Join(out, ",")
}

func TestEvalBasics(t *testing.T) {
	tr := evalDoc(t)
	cases := []struct {
		query string
		want  string
	}{
		{".", "r"},
		{"a", "a,a"},
		{"b/a", "a"},
		{"a/text()", "'x','y'"},
		{"b/a/text()", "'z'"},
		{"a | b", "a,a,b"},
		{"b | a", "b,a,a"},
		{"a | a", "a,a"},
		{"(a | b)/text()", "'x','y'"},
		{"a[position() = 2]/text()", "'y'"},
		{"a[text() = \"x\"]/text()", "'x'"},
		{"a[text() = \"nope\"]", ""},
		{"b[a]", "b"},
		{"b[not(a)]", ""},
		{"b[a and c]", "b"},
		{"b[a and not(c)]", ""},
		{"b[zz or c]", "b"},
		{"b[true()]", "b"},
		{"zz", ""},
		{".//a", "a,a,a"},
		{"b//c", "c"},
		{".//text()", "'x','y','z'"},
	}
	for _, tc := range cases {
		t.Run(tc.query, func(t *testing.T) {
			got := Eval(MustParse(tc.query), tr.Root)
			if labels(got) != tc.want {
				t.Errorf("Eval(%q) = [%s], want [%s]", tc.query, labels(got), tc.want)
			}
		})
	}
}

func TestEvalStarRecursive(t *testing.T) {
	// Chain: r/a/b/a/b/a, from the proof of Theorem 3.1.
	tr, err := xmltree.ParseString(`<r><a><b><a><b><a><c/></a></b></a></b></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	got := Eval(MustParse("(a/b)*/a"), tr.Root)
	if len(got) != 3 {
		t.Errorf("(a/b)*/a selected %d nodes, want 3 a's", len(got))
	}
	// Star includes zero iterations: self.
	got = Eval(MustParse("a*"), tr.Root)
	if labels(got) != "r,a" {
		t.Errorf("a* = [%s], want [r,a]", labels(got))
	}
	got = Eval(MustParse("(a | b)*"), tr.Root)
	if len(got) != 6 { // r + 3 a's + 2 b's
		t.Errorf("(a|b)* selected %d nodes, want 6", len(got))
	}
}

func TestEvalDedupeOrder(t *testing.T) {
	tr := evalDoc(t)
	// (.|.)/a must not duplicate results.
	got := Eval(MustParse("(. | .)/a"), tr.Root)
	if labels(got) != "a,a" {
		t.Errorf("dedupe failed: [%s]", labels(got))
	}
}

func TestEvalAllAndHelpers(t *testing.T) {
	tr := evalDoc(t)
	as := Eval(MustParse("a"), tr.Root)
	texts := runAll(Compile(MustParse("text()")), as)
	if got := Strings(texts); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Errorf("Strings = %v", got)
	}
	if ids := IDs(as); len(ids) != 2 || ids[0] == ids[1] {
		t.Errorf("IDs = %v", ids)
	}
}

func TestSizeAndHasDesc(t *testing.T) {
	e := MustParse("a[b/text() = \"x\"]/c*")
	if Size(e) < 5 {
		t.Errorf("Size = %d, want >= 5", Size(e))
	}
	if HasDesc(e) {
		t.Error("HasDesc on pure X_R query")
	}
	if !HasDesc(MustParse("a//b")) {
		t.Error("HasDesc missed //")
	}
	if !HasDesc(MustParse("a[x//y]")) {
		t.Error("HasDesc missed // inside qualifier")
	}
}

func TestPathParseStringRoundTrip(t *testing.T) {
	cases := []string{
		"a",
		"a/b/c",
		"basic/class/semester[position() = 1]/title",
		"a[position() = 2]/b",
		"text()",
		"a/text()",
		"mandatory/regular",
	}
	for _, src := range cases {
		p, err := ParsePath(src)
		if err != nil {
			t.Fatalf("ParsePath(%q): %v", src, err)
		}
		back, err := ParsePath(p.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", p.String(), err)
		}
		if !p.Equal(back) {
			t.Errorf("path round trip: %q -> %q", src, back.String())
		}
	}
	// Shorthand [2] == [position() = 2].
	p := MustParsePath("a[2]/b")
	if p.Steps[0].Pos != 2 {
		t.Errorf("shorthand position = %d, want 2", p.Steps[0].Pos)
	}
}

func TestPathParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "/", "a//b", "a[0]", "a[-1]", "a[b]", "text()/a", "1a", "a[1",
		// Trailing text after the position is part of the qualifier,
		// not ignored: the first would otherwise drop "and c".
		"a[position() = 2 and c]", "a[1x]/b", "a[position()=1]]", "a/b[2]junk]", "a[1][2]",
	} {
		if _, err := ParsePath(src); err == nil {
			t.Errorf("ParsePath(%q) succeeded, want error", src)
		}
	}
}

// TestStringParenthesizesOnce: a star or filter over a non-atomic
// subject prints one pair of parentheses, and the rendering reparses
// to an equal AST.
func TestStringParenthesizesOnce(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"(a | b)[position() = 7]", "(a | b)[position() = 7]"},
		{"((a | b))*", "(a | b)*"},
		{"(a/b)*", "(a/b)*"},
		{"(a//b)[c]", "(a//b)[c]"},
		{"((a/b)[c])*", "(a/b)[c]*"},
		{"x/(a | b/c)*[d]/e", "x/(a | b/c)*[d]/e"},
		{"a[b]*", "a[b]*"},
	} {
		e := MustParse(tc.src)
		got := String(e)
		if got != tc.want {
			t.Errorf("String(%s) = %q, want %q", tc.src, got, tc.want)
		}
		if back, err := Parse(got); err != nil || !reflect.DeepEqual(back, e) {
			t.Errorf("String(%s) = %q reparses to %#v (err %v), want %#v", tc.src, got, back, err, e)
		}
	}
}

func TestPathPrefix(t *testing.T) {
	ab := MustParsePath("a/b")
	abc := MustParsePath("a/b/c")
	ab2 := MustParsePath("a/b[position() = 2]")
	if !ab.IsPrefixOf(abc) {
		t.Error("a/b should be a prefix of a/b/c")
	}
	if abc.IsPrefixOf(ab) {
		t.Error("a/b/c should not be a prefix of a/b")
	}
	if ab.IsPrefixOf(ab2) || ab2.IsPrefixOf(ab) {
		t.Error("different positions should not be prefixes (Fig. 3(c) disambiguation)")
	}
	if !ab.IsPrefixOf(ab) {
		t.Error("a path is a prefix of itself")
	}
	abText := ab.WithText()
	if abText.IsPrefixOf(abc) {
		t.Error("path ending in text() is a prefix only of itself")
	}
	if !abText.IsPrefixOf(abText) {
		t.Error("text path self-prefix")
	}
}

func TestPathConcat(t *testing.T) {
	p, err := MustParsePath("a/b").Concat(MustParsePath("c/text()"))
	if err != nil {
		t.Fatalf("Concat: %v", err)
	}
	if p.String() != "a/b/c/text()" {
		t.Errorf("Concat = %q", p.String())
	}
	if _, err := p.Concat(MustParsePath("d")); err == nil {
		t.Error("Concat after text() should error")
	}
}

func TestEvalPathMatchesExpr(t *testing.T) {
	tr := evalDoc(t)
	for _, src := range []string{"a", "b/a", "a[position() = 2]", "a/text()", "b/c"} {
		p := MustParsePath(src)
		viaPath := p.EvalPath(tr.Root)
		viaExpr := Eval(p.Expr(), tr.Root)
		if labels(viaPath) != labels(viaExpr) {
			t.Errorf("path %q: EvalPath=[%s] Expr eval=[%s]", src, labels(viaPath), labels(viaExpr))
		}
	}
}

func queryTestDTD() *dtd.DTD {
	return dtd.MustNew("db",
		dtd.D("db", dtd.Star("class")),
		dtd.D("class", dtd.Concat("cno", "title", "type")),
		dtd.D("cno", dtd.Str()),
		dtd.D("title", dtd.Str()),
		dtd.D("type", dtd.Disj("regular", "project")),
		dtd.D("regular", dtd.Concat("prereq")),
		dtd.D("project", dtd.Str()),
		dtd.D("prereq", dtd.Star("class")),
	)
}

// TestRandomQueryProperty: generated queries print, reparse to the same
// AST, and evaluate without error on random instances.
func TestRandomQueryProperty(t *testing.T) {
	d := queryTestDTD()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := RandomQuery(r, d, GenOptions{})
		printed := String(q)
		back, err := Parse(printed)
		if err != nil {
			t.Logf("seed %d: reparse of %q failed: %v", seed, printed, err)
			return false
		}
		if !reflect.DeepEqual(q, back) {
			t.Logf("seed %d: AST round trip failed for %q", seed, printed)
			return false
		}
		tr := xmltree.MustGenerate(d, r, xmltree.GenOptions{})
		_ = Eval(q, tr.Root)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestRandomQueryTranslatable: under TranslatableOnly, position()
// qualifiers appear only directly on label steps.
func TestRandomQueryTranslatable(t *testing.T) {
	d := queryTestDTD()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		q := RandomQuery(r, d, GenOptions{TranslatableOnly: true})
		if bad := findBadPosition(q); bad != "" {
			t.Fatalf("query %q has position() on non-label %s", String(q), bad)
		}
	}
}

func findBadPosition(e Expr) string {
	switch e := e.(type) {
	case Seq:
		if s := findBadPosition(e.L); s != "" {
			return s
		}
		return findBadPosition(e.R)
	case Union:
		if s := findBadPosition(e.L); s != "" {
			return s
		}
		return findBadPosition(e.R)
	case Desc:
		if s := findBadPosition(e.L); s != "" {
			return s
		}
		return findBadPosition(e.R)
	case Star:
		return findBadPosition(e.P)
	case Filter:
		if _, isPos := e.Q.(QPos); isPos {
			if _, isLabel := e.P.(Label); !isLabel {
				return String(e)
			}
		}
		if s := findBadPosQual(e.Q); s != "" {
			return s
		}
		return findBadPosition(e.P)
	}
	return ""
}

func findBadPosQual(q Qual) string {
	switch q := q.(type) {
	case QPath:
		return findBadPosition(q.P)
	case QTextEq:
		return findBadPosition(q.P)
	case QPos:
		return "" // checked at the Filter level
	case QNot:
		return findBadPosQual(q.Q)
	case QAnd:
		if s := findBadPosQual(q.L); s != "" {
			return s
		}
		return findBadPosQual(q.R)
	case QOr:
		if s := findBadPosQual(q.L); s != "" {
			return s
		}
		return findBadPosQual(q.R)
	}
	return ""
}
