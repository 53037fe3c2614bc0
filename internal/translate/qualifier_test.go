package translate_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/anfa"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestQualifierShapes runs each qualifier shape through both users of
// anfa.CompileQual: anfa.FromExpr, checked against the xpath
// interpreter on the source document, and translation, checked for
// query preservation across the class embedding. Shapes translation
// rejects must keep their error texts.
func TestQualifierShapes(t *testing.T) {
	emb := workload.ClassEmbedding()
	tr, err := translate.New(emb)
	if err != nil {
		t.Fatal(err)
	}
	doc := classDoc(t)
	const boolPos = "translate: bare position() inside a Boolean qualifier is not supported"
	for _, tc := range []struct {
		q string
		// trErr is translation's error text; "" when it translates.
		trErr string
		// labelPos marks position() on a non-label step, which
		// FromExpr rejects as well.
		labelPos bool
	}{
		{q: `class[true()]/cno`},
		{q: `class[not(true())]/cno`},
		{q: `class[true() and type/project]/cno`},
		{q: `class[type/project and true()]/cno`},
		{q: `class[true() or type/project]/cno`},
		{q: `class[type/project or true()]/cno`},
		{q: `class[not(not(type/project))]/cno`},
		{q: `class[not(not(true()))]/title`},
		{q: `class[not(not(true()) or cno)]/title`},
		{q: `class[cno/text() = "CS100"]/title/text()`},
		{q: `class[not(cno/text() = "CS100") and true()]/title/text()`},
		{q: `class[cno or position() = 1]`, trErr: boolPos},
		{q: `class[not(position() = 1)]/cno`, trErr: boolPos},
		{q: `class[true() and position() = 2]`, trErr: boolPos},
		{q: `(class | class/type)[position() = 1]`, labelPos: true,
			trErr: `translate: position() qualifier on non-label step "class | class/type" is not supported`},
		{q: `(class/type)[position() = 1]`, labelPos: true,
			trErr: `translate: position() qualifier on non-label step "class/type" is not supported`},
	} {
		e := xpath.MustParse(tc.q)
		auto, err := anfa.FromExpr(e)
		switch {
		case tc.labelPos:
			want := fmt.Sprintf("anfa: query %s: position() filters %s, not a bare label step",
				xpath.String(e), xpath.String(e.(xpath.Filter).P))
			if err == nil || err.Error() != want {
				t.Errorf("FromExpr(%s) error = %v, want %q", tc.q, err, want)
			}
		case err != nil:
			t.Errorf("FromExpr(%s): %v", tc.q, err)
		default:
			want := ids(xpath.EvalInterpreted(e, doc.Root))
			if got := ids(auto.EvalInterpreted(doc.Root)); !slices.Equal(got, want) {
				t.Errorf("FromExpr(%s) selected %v, xpath %v", tc.q, got, want)
			}
		}

		if tc.trErr != "" {
			if _, err := tr.Translate(e); err == nil || err.Error() != tc.trErr {
				t.Errorf("Translate(%s) error = %v, want %q", tc.q, err, tc.trErr)
			}
			continue
		}
		if msg := checkPreserved(tr, emb, e, doc); msg != "" {
			t.Errorf("%s: %s", tc.q, msg)
		}
	}
}

// TestTranslateDeterministic: translating a query again yields the
// same automaton text and the same regular XPath, with and without the
// optimizer. Final states and their labels are visited in sorted order,
// so state numbering does not follow map iteration.
func TestTranslateDeterministic(t *testing.T) {
	emb := workload.ClassEmbedding()
	var queries []xpath.Expr
	for _, qs := range []string{
		`(class/type/regular/prereq)*/class/cno/text()`,
		`class[cno/text() = "CS331"]/(type/regular/prereq/class)*`,
		`(class | class/type/regular/prereq/class)/cno/text()`,
		`.//class[title]/cno/text()`,
	} {
		queries = append(queries, xpath.MustParse(qs))
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		queries = append(queries, xpath.RandomQuery(r, emb.Source, xpath.GenOptions{TranslatableOnly: true, MaxDepth: 3}))
	}
	for _, noOpt := range []bool{false, true} {
		for _, q := range queries {
			var first string
			for run := 0; run < 12; run++ {
				// A fresh translator each run: sub-machine names count
				// up across one translator's calls.
				tr, err := translate.NewWithOptions(emb, translate.Options{NoOptimize: noOpt})
				if err != nil {
					t.Fatal(err)
				}
				auto, err := tr.Translate(q)
				if err != nil {
					t.Fatalf("translate %s: %v", xpath.String(q), err)
				}
				text := auto.String()
				if back, err := auto.ToRegex(); err == nil {
					text += "regex: " + xpath.String(back) + "\n"
				}
				if run == 0 {
					first = text
				} else if text != first {
					t.Errorf("NoOptimize=%v: %s translated differently on run %d:\n%s\nvs\n%s", noOpt, xpath.String(q), run, first, text)
					break
				}
			}
		}
	}
}

func ids(ns []*xmltree.Node) []xmltree.NodeID {
	out := make([]xmltree.NodeID, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}
