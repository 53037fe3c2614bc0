// Command migration demonstrates lossless data migration (§1): an
// order-management schema evolves — types are renamed, intermediate
// wrappers appear, new required fields are added — and documents must
// move to the new schema without losing information. The embedding
// search discovers the mapping from the lexical similarity of tag
// names; the generated XSLT stylesheets perform the migration and the
// rollback the paper motivates ("the user may decide to roll back to
// the original data source").
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/dtd"
	"repro/internal/match"
	"repro/internal/search"
	"repro/internal/xmltree"
	"repro/internal/xslt"
)

// Version 1 of the schema.
const ordersV1 = `
<!ELEMENT orders (order)*>
<!ELEMENT order (orderid, customer, items, status)>
<!ELEMENT orderid (#PCDATA)>
<!ELEMENT customer (custname, city)>
<!ELEMENT custname (#PCDATA)>
<!ELEMENT city (#PCDATA)>
<!ELEMENT items (line)*>
<!ELEMENT line (sku, qty)>
<!ELEMENT sku (#PCDATA)>
<!ELEMENT qty (#PCDATA)>
<!ELEMENT status (pending | shipped)>
<!ELEMENT pending EMPTY>
<!ELEMENT shipped (#PCDATA)>
`

// Version 2: renamed tags (order-id, quantity), a wrapper around the
// customer block, a new required audit section, and an extra carrier
// alternative in the status.
const ordersV2 = `
<!ELEMENT orders (audit, order)*>
<!ELEMENT audit (createdby, createdat)>
<!ELEMENT createdby (#PCDATA)>
<!ELEMENT createdat (#PCDATA)>
<!ELEMENT order (order-id, parties, items, status)>
<!ELEMENT order-id (#PCDATA)>
<!ELEMENT parties (customer)>
<!ELEMENT customer (customer-name, city)>
<!ELEMENT customer-name (#PCDATA)>
<!ELEMENT city (#PCDATA)>
<!ELEMENT items (line)*>
<!ELEMENT line (sku, quantity)>
<!ELEMENT sku (#PCDATA)>
<!ELEMENT quantity (#PCDATA)>
<!ELEMENT status (pending | shipped | heldup)>
<!ELEMENT pending EMPTY>
<!ELEMENT shipped (#PCDATA)>
<!ELEMENT heldup (#PCDATA)>
`

const v1Doc = `
<orders>
  <order>
    <orderid>A-17</orderid>
    <customer><custname>Acme</custname><city>Zurich</city></customer>
    <items>
      <line><sku>BOLT-3</sku><qty>120</qty></line>
      <line><sku>NUT-3</sku><qty>80</qty></line>
    </items>
    <status><shipped>2025-11-02</shipped></status>
  </order>
</orders>
`

func main() {
	v1, err := dtd.Parse(ordersV1, "orders")
	if err != nil {
		log.Fatalf("v1 schema: %v", err)
	}
	v2, err := dtd.Parse(ordersV2, "orders")
	if err != nil {
		log.Fatalf("v2 schema: %v", err)
	}

	// Lexical matching scores order-id/orderid, quantity/qty, ... the
	// search turns the scores into an information-preserving mapping.
	att := match.Lexical(v1, v2, 0.3)
	found, err := search.Find(v1, v2, att, search.Options{Heuristic: search.QualityOrdered, Seed: 2, MaxRestarts: 60})
	if err != nil {
		log.Fatal(err)
	}
	if found.Embedding == nil {
		log.Fatal("no embedding from v1 to v2 found")
	}
	sigma := found.Embedding
	fmt.Println("=== discovered migration mapping ===")
	fmt.Print(sigma.Marshal())

	// Compile the migration to XSLT — the paper's deployment story.
	fwd, err := xslt.ForwardStylesheet(sigma)
	if err != nil {
		log.Fatal(err)
	}
	inv, err := xslt.InverseStylesheet(sigma)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== σd as XSLT (excerpt) ===")
	excerpt(fwd.Serialize(), 24)

	doc, err := xmltree.ParseString(v1Doc)
	if err != nil {
		log.Fatal(err)
	}
	if err := doc.Validate(v1); err != nil {
		log.Fatalf("input invalid: %v", err)
	}
	migrated, err := fwd.Run(doc)
	if err != nil {
		log.Fatalf("migration: %v", err)
	}
	if err := migrated.Validate(v2); err != nil {
		log.Fatalf("migrated document does not conform to v2: %v", err)
	}
	fmt.Println("\n=== migrated document (conforms to v2) ===")
	fmt.Print(migrated)

	rolledBack, err := inv.Run(migrated)
	if err != nil {
		log.Fatalf("rollback: %v", err)
	}
	if !xmltree.Equal(doc, rolledBack) {
		log.Fatalf("rollback lost information: %s", xmltree.Diff(doc, rolledBack))
	}
	fmt.Println("\nrollback recovers the v1 document exactly ✓")
}

func excerpt(s string, lines int) {
	parts := strings.SplitAfter(s, "\n")
	if len(parts) > lines {
		parts = parts[:lines]
	}
	fmt.Print(strings.Join(parts, ""))
	fmt.Println("  ...")
}
