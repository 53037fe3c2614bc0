package repro

import (
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/search"
	"repro/internal/translate"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xslt"
)

const classDTDText = `
<!ELEMENT db (class)*>
<!ELEMENT class (cno, title, type)>
<!ELEMENT cno (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT type (regular | project)>
<!ELEMENT regular (prereq)>
<!ELEMENT project (#PCDATA)>
<!ELEMENT prereq (class)*>
`

const schoolDTDText = `
<!ELEMENT school (courses, students)>
<!ELEMENT courses (current, history)>
<!ELEMENT current (course)*>
<!ELEMENT history (course)*>
<!ELEMENT course (basic, category)>
<!ELEMENT basic (cno, credit, class)>
<!ELEMENT cno (#PCDATA)>
<!ELEMENT credit (#PCDATA)>
<!ELEMENT class (semester)*>
<!ELEMENT semester (title, year, term, instructor)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT term (#PCDATA)>
<!ELEMENT instructor (#PCDATA)>
<!ELEMENT category (mandatory | advanced)>
<!ELEMENT mandatory (regular | lab)>
<!ELEMENT lab (#PCDATA)>
<!ELEMENT advanced (project | thesis)>
<!ELEMENT thesis (#PCDATA)>
<!ELEMENT project (#PCDATA)>
<!ELEMENT regular (required)>
<!ELEMENT required (prereq)>
<!ELEMENT prereq (course)*>
<!ELEMENT students (student)*>
<!ELEMENT student (ssn, name, gpa, taking)>
<!ELEMENT ssn (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT gpa (#PCDATA)>
<!ELEMENT taking (cno)*>
`

// TestEndToEndPipeline drives the paper's workflow across the library
// packages: parse schemas, build att, search for an embedding, map an
// instance, invert it, answer a translated query, and check the
// generated XSLT against the instance mapping.
func TestEndToEndPipeline(t *testing.T) {
	src, err := dtd.Parse(classDTDText, "db")
	if err != nil {
		t.Fatalf("dtd.Parse(source): %v", err)
	}
	tgt, err := dtd.Parse(schoolDTDText, "school")
	if err != nil {
		t.Fatalf("dtd.Parse(target): %v", err)
	}
	att := embedding.UniformSim(src, tgt)
	res, err := search.Find(src, tgt, att, search.Options{Heuristic: search.Random, Seed: 3, MaxRestarts: 60})
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	if res.Embedding == nil {
		t.Fatalf("no embedding found")
	}
	doc, err := xmltree.ParseString(`
<db>
  <class><cno>CS331</cno><title>DB</title>
    <type><regular><prereq>
      <class><cno>CS210</cno><title>Algo</title><type><project>p</project></type></class>
    </prereq></regular></type>
  </class>
</db>`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Embedding.Apply(doc)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := out.Tree.Validate(tgt); err != nil {
		t.Fatalf("type safety: %v", err)
	}
	back, err := res.Embedding.Invert(out.Tree)
	if err != nil {
		t.Fatalf("Invert: %v", err)
	}
	if !xmltree.Equal(doc, back) {
		t.Fatalf("round trip failed")
	}

	// Query preservation through the translator.
	tr, err := translate.New(res.Embedding)
	if err != nil {
		t.Fatal(err)
	}
	q, err := xpath.Parse(`class[cno/text() = "CS331"]/(type/regular/prereq/class)*`)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := tr.Translate(q)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	want := xpath.Eval(q, doc.Root)
	got := auto.Eval(out.Tree.Root)
	if len(got) != len(want) {
		t.Errorf("translated query selects %d nodes, source query %d", len(got), len(want))
	}
	for _, n := range got {
		if _, ok := out.IDM[n.ID]; !ok {
			t.Errorf("translated result %q outside idM", n.Label)
		}
	}

	// XSLT generation works off the same embedding.
	fwd, err := xslt.ForwardStylesheet(res.Embedding)
	if err != nil {
		t.Fatal(err)
	}
	viaXSLT, err := fwd.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(viaXSLT, out.Tree) {
		t.Error("XSLT forward differs from InstMap")
	}
	inv, err := xslt.InverseStylesheet(res.Embedding)
	if err != nil {
		t.Fatal(err)
	}
	if text := inv.Serialize(); !strings.Contains(text, "xsl:stylesheet") {
		t.Error("serialization missing stylesheet element")
	}
}
