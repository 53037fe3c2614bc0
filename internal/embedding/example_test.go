package embedding_test

import (
	"fmt"
	"log"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/search"
	"repro/internal/translate"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Example demonstrates the full pipeline on a miniature pair of
// schemas: search for an embedding, map a document, invert it, and
// answer a translated query.
func Example() {
	src, err := dtd.Parse(`
<!ELEMENT log (entry)*>
<!ELEMENT entry (when, what)>
<!ELEMENT when (#PCDATA)>
<!ELEMENT what (#PCDATA)>`, "log")
	if err != nil {
		log.Fatal(err)
	}
	tgt, err := dtd.Parse(`
<!ELEMENT journal (header, entries)>
<!ELEMENT header (#PCDATA)>
<!ELEMENT entries (entry)*>
<!ELEMENT entry (when, what, severity)>
<!ELEMENT when (#PCDATA)>
<!ELEMENT what (#PCDATA)>
<!ELEMENT severity (#PCDATA)>`, "journal")
	if err != nil {
		log.Fatal(err)
	}
	att := embedding.UniformSim(src, tgt)
	res, err := search.Find(src, tgt, att, search.Options{Heuristic: search.QualityOrdered, Seed: 1})
	if err != nil || res.Embedding == nil {
		log.Fatal("no embedding", err)
	}
	doc, _ := xmltree.ParseString(`<log><entry><when>09:00</when><what>boot</what></entry></log>`)
	out, err := res.Embedding.Apply(doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("conforms:", out.Tree.Validate(tgt) == nil)
	back, _ := res.Embedding.Invert(out.Tree)
	fmt.Println("round trip:", xmltree.Equal(doc, back))
	tr, _ := translate.New(res.Embedding)
	q, _ := xpath.Parse("entry/what/text()")
	auto, _ := tr.Translate(q)
	for _, n := range auto.Eval(out.Tree.Root) {
		fmt.Println("answer:", n.Text)
	}
	// Output:
	// conforms: true
	// round trip: true
	// answer: boot
}
