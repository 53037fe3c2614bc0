package dtd_test

import (
	"fmt"
	"log"
	"math/rand"
	"testing"

	"repro/internal/dtd"
	"repro/internal/xmltree"
)

// ExampleParse shows content-model normalization: sugar like + and ?
// becomes the paper's five production shapes.
func ExampleParse() {
	d, err := dtd.Parse(`
<!ELEMENT r (a+, b?)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b EMPTY>`, "r")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(d)
	// Output:
	// <!ELEMENT r.1 (a)*>
	// <!ELEMENT r.2 EMPTY>
	// <!ELEMENT r.3 (b | r.2)>
	// <!ELEMENT r (a, r.1, r.3)>
	// <!ELEMENT a (#PCDATA)>
	// <!ELEMENT b EMPTY>
}

// TestSchemaLiteralAPI: a schema built from literals is consistent, so
// a generated instance of it validates.
func TestSchemaLiteralAPI(t *testing.T) {
	d, err := dtd.New("r",
		dtd.D("r", dtd.Star("a")),
		dtd.D("a", dtd.Str()),
	)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.Generate(d, rand.New(rand.NewSource(1)), xmltree.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Validate(d); err != nil {
		t.Error(err)
	}
}
