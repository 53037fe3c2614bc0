//go:build xmllint

package corpus

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// xmllintBin resolves the external binary once per test, skipping
// (not failing) where it is absent so `-tags xmllint` stays runnable
// on any machine; `make corpus-diff` is the supported entry point.
func xmllintBin(t *testing.T) string {
	t.Helper()
	bin, err := lookupXmllint()
	if err != nil {
		t.Skipf("xmllint not found (set $XMLLINT or install libxml2): %v", err)
	}
	return bin
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestXmllintDTDConformance cross-validates both ends of the data
// plane against libxml2's DTD validator: generated source instances
// must be valid per the raw source DTD text, and migrated documents
// must be valid per the raw target DTD text. This checks the
// generator, the migrator AND our own Validate against an independent
// implementation.
func TestXmllintDTDConformance(t *testing.T) {
	bin := xmllintBin(t)
	for _, p := range MustPairs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			dir := t.TempDir()
			srcDTD := writeFile(t, dir, "source.dtd", p.SourceText)
			tgtDTD := writeFile(t, dir, "target.dtd", p.TargetText)

			att := match.Lexical(p.Source, p.Target, 0)
			res, err := search.Find(p.Source, p.Target, att, search.Options{
				Heuristic: search.QualityOrdered, Seed: 1, MaxRestarts: 200,
			})
			if err != nil || res.Embedding == nil {
				t.Fatalf("no embedding for %s (err=%v)", p.Name, err)
			}

			for i := 0; i < 2; i++ {
				doc, err := GenerateSized(p.Source, int64(1+i*7919), 200)
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				docPath := writeFile(t, dir, "doc.xml", doc.StringCompact())
				if err := dtdValidate(bin, srcDTD, docPath); err != nil {
					t.Errorf("generated instance rejected by xmllint: %v", err)
				}
				mres, err := res.Embedding.Apply(doc)
				if err != nil {
					t.Fatalf("migrate: %v", err)
				}
				migPath := writeFile(t, dir, "migrated.xml", mres.Tree.StringCompact())
				if err := dtdValidate(bin, tgtDTD, migPath); err != nil {
					t.Errorf("migrated document rejected by xmllint: %v", err)
				}
			}
		})
	}
}

// TestXmllintQueryDifferential cross-validates the X_R evaluator
// against xmllint --xpath on the shared XPath 1.0 fragment: curated
// plus generated queries over generated instances, compared as
// multisets of (name, normalized string-value) rows. Any divergence
// fails.
func TestXmllintQueryDifferential(t *testing.T) {
	bin := xmllintBin(t)
	for _, p := range MustPairs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			dir := t.TempDir()
			doc, err := GenerateSized(p.Source, 1, 300)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			docPath := writeFile(t, dir, "doc.xml", doc.StringCompact())

			queries := append([]xpath.Expr(nil), p.Queries...)
			r := rand.New(rand.NewSource(17))
			for i := 0; i < 8; i++ {
				queries = append(queries, xpath.RandomQuery(r, p.Source, xpath.GenOptions{TranslatableOnly: true, MaxDepth: 3}))
			}
			compared := 0
			for _, q := range queries {
				if _, err := ToXPath1(q); err != nil {
					continue // outside the shared fragment (Kleene star etc.)
				}
				compared++
				diff, err := diffQuery(bin, docPath, q, doc.Root)
				if err != nil {
					t.Fatalf("xmllint probe: %v", err)
				}
				if diff != "" {
					t.Errorf("divergence: %s", diff)
				}
			}
			if compared == 0 {
				t.Errorf("no query fell in the shared fragment — differential vacuous")
			}
			t.Logf("%s: %d queries cross-checked", p.Name, compared)
		})
	}
}

// TestXmllintRoundTripRegressions drives the satellite round-trip
// fixes through the external parser: documents with CR character
// references and CDATA close delimiters must be well-formed XML per
// xmllint after our serialization.
func TestXmllintRoundTripRegressions(t *testing.T) {
	bin := xmllintBin(t)
	dir := t.TempDir()
	for name, text := range map[string]string{
		"cr":          "x\ry",
		"cdata-close": "x]]>y",
		"mixed":       "a\r\nb]]>c&<>'\"",
	} {
		tr := &xmltree.Tree{}
		tr.Root = tr.NewElement("a")
		xmltree.Append(tr.Root, tr.NewText(text))
		p := writeFile(t, dir, name+".xml", tr.StringCompact())
		if _, err := runXmllint(bin, "--noout", p); err != nil {
			t.Errorf("%s: serialized document is not well-formed XML: %v", name, err)
		}
	}
}
