// Command quickstart is the smallest end-to-end tour of the library:
// parse two DTDs, search for an information-preserving schema
// embedding, map a document, check type safety, and invert the mapping
// to recover the original (the paper's §1 workflow).
package main

import (
	"fmt"
	"log"

	"repro/internal/dtd"
	"repro/internal/match"
	"repro/internal/search"
	"repro/internal/xmltree"
)

const sourceDTD = `
<!ELEMENT contacts (person)*>
<!ELEMENT person (name, email)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT email (#PCDATA)>
`

// The target is richer: it wraps people in a directory with required
// bookkeeping that the source never had — schema embedding fills it
// with default instances and still round-trips.
const targetDTD = `
<!ELEMENT directory (meta, entries)>
<!ELEMENT meta (owner, created)>
<!ELEMENT owner (#PCDATA)>
<!ELEMENT created (#PCDATA)>
<!ELEMENT entries (entry)*>
<!ELEMENT entry (name, contact, extras, note)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT contact (email)>
<!ELEMENT email (#PCDATA)>
<!ELEMENT extras (phone | nothing)>
<!ELEMENT phone (#PCDATA)>
<!ELEMENT nothing EMPTY>
<!ELEMENT note (#PCDATA)>
`

const document = `
<contacts>
  <person><name>Ada Lovelace</name><email>ada@analytical.engine</email></person>
  <person><name>Alan Turing</name><email>alan@bletchley.park</email></person>
</contacts>
`

func main() {
	src, err := dtd.Parse(sourceDTD, "contacts")
	if err != nil {
		log.Fatalf("parse source schema: %v", err)
	}
	tgt, err := dtd.Parse(targetDTD, "directory")
	if err != nil {
		log.Fatalf("parse target schema: %v", err)
	}

	// A lexical similarity matrix scores tag-name pairs; pairs the
	// matcher cannot see (contacts/directory, person/entry) get expert
	// scores, exactly the workflow §4.1 describes. The search then looks
	// for a valid embedding that respects the matrix.
	att := match.Lexical(src, tgt, 0.5)
	att.Set("contacts", "directory", 0.9)
	att.Set("person", "entry", 0.9)
	found, err := search.Find(src, tgt, att, search.Options{Heuristic: search.Random, Seed: 1, MaxRestarts: 50})
	if err != nil {
		log.Fatalf("search: %v", err)
	}
	if found.Embedding == nil {
		log.Fatalf("no embedding found after %d restarts", found.Restarts)
	}
	sigma := found.Embedding
	fmt.Println("=== schema embedding σ = (λ, path) ===")
	fmt.Print(sigma)

	doc, err := xmltree.ParseString(document)
	if err != nil {
		log.Fatalf("parse document: %v", err)
	}
	out, err := sigma.Apply(doc)
	if err != nil {
		log.Fatalf("instance mapping: %v", err)
	}
	if err := out.Tree.Validate(tgt); err != nil {
		log.Fatalf("type safety violated: %v", err)
	}
	fmt.Println("\n=== σd(T): conforms to the target schema ===")
	fmt.Print(out.Tree)

	back, err := sigma.Invert(out.Tree)
	if err != nil {
		log.Fatalf("inverse: %v", err)
	}
	if !xmltree.Equal(doc, back) {
		log.Fatal("round trip failed")
	}
	fmt.Println("\n=== σd⁻¹(σd(T)) = T: information preserved ===")
	fmt.Print(back)
}
