// Command partialpreserve demonstrates the paper's §7 extension:
// partial information preservation. A hospital exports patient records
// to a research registry; the registry must receive visit histories and
// diagnoses losslessly, while names and payment details are
// deliberately dropped. The selected part of the data — and only it —
// survives the round trip.
package main

import (
	"fmt"
	"log"

	"repro/internal/dtd"
	"repro/internal/match"
	"repro/internal/partial"
	"repro/internal/search"
	"repro/internal/xmltree"
)

const hospitalDTD = `
<!ELEMENT patients (patient)*>
<!ELEMENT patient (pid, name, billing, visits)>
<!ELEMENT pid (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT billing (card, plan)>
<!ELEMENT card (#PCDATA)>
<!ELEMENT plan (#PCDATA)>
<!ELEMENT visits (visit)*>
<!ELEMENT visit (date, diagnosis)>
<!ELEMENT date (#PCDATA)>
<!ELEMENT diagnosis (#PCDATA)>
`

const registryDTD = `
<!ELEMENT registry (provenance, cohort)>
<!ELEMENT provenance (site, exported)>
<!ELEMENT site (#PCDATA)>
<!ELEMENT exported (#PCDATA)>
<!ELEMENT cohort (subject)*>
<!ELEMENT subject (pid, visits)>
<!ELEMENT pid (#PCDATA)>
<!ELEMENT visits (visit)*>
<!ELEMENT visit (date, diagnosis)>
<!ELEMENT date (#PCDATA)>
<!ELEMENT diagnosis (#PCDATA)>
`

const records = `
<patients>
  <patient>
    <pid>P-001</pid><name>Ada L.</name>
    <billing><card>4111…</card><plan>gold</plan></billing>
    <visits>
      <visit><date>2026-01-10</date><diagnosis>J06.9</diagnosis></visit>
      <visit><date>2026-03-02</date><diagnosis>M54.5</diagnosis></visit>
    </visits>
  </patient>
  <patient>
    <pid>P-002</pid><name>Alan T.</name>
    <billing><card>5500…</card><plan>basic</plan></billing>
    <visits><visit><date>2026-02-14</date><diagnosis>Z00.0</diagnosis></visit></visits>
  </patient>
</patients>
`

func main() {
	hospital, err := dtd.Parse(hospitalDTD, "patients")
	if err != nil {
		log.Fatal(err)
	}
	registry, err := dtd.Parse(registryDTD, "registry")
	if err != nil {
		log.Fatal(err)
	}

	// Select what must be preserved: the visit history keyed by patient
	// id. Names and billing are excluded on purpose.
	keep := partial.NewSelection("patients", "patient", "pid", "visits", "visit", "date", "diagnosis")
	pruned, err := partial.Prune(hospital, keep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== pruned source schema (the preserved part) ===")
	fmt.Print(pruned)

	// Embed the pruned schema into the registry.
	att := match.Lexical(pruned, registry, 0.4)
	att.Set("patients", "registry", 0.9)
	att.Set("patient", "subject", 0.9)
	found, err := search.Find(pruned, registry, att, search.Options{Heuristic: search.QualityOrdered, Seed: 1, MaxRestarts: 50})
	if err != nil {
		log.Fatal(err)
	}
	if found.Embedding == nil {
		log.Fatal("no embedding of the preserved part into the registry")
	}
	m, err := partial.NewMapping(hospital, keep, found.Embedding)
	if err != nil {
		log.Fatal(err)
	}

	doc, err := xmltree.ParseString(records)
	if err != nil {
		log.Fatal(err)
	}
	exported, err := m.Apply(doc)
	if err != nil {
		log.Fatal(err)
	}
	if err := exported.Tree.Validate(registry); err != nil {
		log.Fatalf("export does not conform: %v", err)
	}
	fmt.Println("\n=== exported registry document ===")
	fmt.Print(exported.Tree)

	// No leaked identifiers: names and card numbers are gone.
	leaked := false
	exported.Tree.Walk(func(n *xmltree.Node) {
		if n.IsText() && (n.Text == "Ada L." || n.Text == "4111…") {
			leaked = true
		}
	})
	if leaked {
		log.Fatal("confidential fields leaked into the export!")
	}
	fmt.Println("\nnames and billing data absent from the export ✓")

	// The preserved part — exactly π(T) — comes back losslessly.
	recovered, err := m.Recover(exported.Tree)
	if err != nil {
		log.Fatal(err)
	}
	want, err := partial.Project(doc, hospital, keep)
	if err != nil {
		log.Fatal(err)
	}
	if !xmltree.Equal(want, recovered) {
		log.Fatal("preserved part was not recovered exactly")
	}
	fmt.Println("selected data recovered exactly: σd⁻¹(σd(π(T))) = π(T) ✓")
}
