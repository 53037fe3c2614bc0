package translate_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/embedding"
	"repro/internal/match"
	"repro/internal/search"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xpath"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/automata.golden from the current translator")

// randomPerEmbedding is the number of generated queries per embedding
// whose translations the golden pins by hash.
const randomPerEmbedding = 50

// goldenEmbedding is one embedding of the golden file with its curated
// queries, kept as source text.
type goldenEmbedding struct {
	name    string
	emb     *embedding.Embedding
	queries []string
}

// goldenEmbeddings returns the class and auction embeddings with the
// queries their tests use, and QualityOrdered's embedding of each
// corpus pair with the pair's curated queries.
func goldenEmbeddings(t *testing.T) []goldenEmbedding {
	t.Helper()
	out := []goldenEmbedding{
		{"class", workload.ClassEmbedding(), []string{
			`class/cno/text()`,
			`class[cno/text() = "CS331"]/(type/regular/prereq/class)*`,
			`(class/type/regular/prereq)*/class/cno/text()`,
			`((class)*)*/cno/text()`,
			`(class/(type/regular/prereq/class)*)*`,
			`class/((type/regular/prereq/class)*/cno)`,
			`(class | class/type/regular/prereq/class)/cno/text()`,
			`class[(type/regular/prereq/class)*/cno/text() = "CS120"]/cno/text()`,
			`class[not((type/regular/prereq/class)*/type/project)]`,
			`.[class]/class[type/project or type/regular]`,
			`.//cno/text()`,
			`.//class[cno/text() = "CS210"]`,
			`class//title`,
			`class[position() = 2]/title/text()`,
			`class[not(true()) or cno]/title`,
			`class[not(not(cno)) and true()]/type`,
			`nosuchtag/child`,
		}},
		{"auction", workload.AuctionEmbedding(), []string{
			`.//itemname/text()`,
			`people/person[profile/education]/personname/text()`,
			`open_auctions/open_auction/bidder/bid[position() = 1]/increase/text()`,
			`(regions/africa/item | regions/asia/item)/description/parlist/listitem/text()`,
		}},
	}
	for _, p := range corpus.MustPairs() {
		res, err := search.Find(p.Source, p.Target, match.Lexical(p.Source, p.Target, 0),
			search.Options{Heuristic: search.QualityOrdered, Seed: 1})
		if err != nil || res.Embedding == nil {
			t.Fatalf("corpus %s: no QualityOrdered embedding (err %v)", p.Name, err)
		}
		out = append(out, goldenEmbedding{"corpus " + p.Name, res.Embedding, p.QueryTexts})
	}
	return out
}

// automatonText renders a translation, or its error, as the golden
// holds it.
func automatonText(tr *translate.Translator, q xpath.Expr) string {
	auto, err := tr.Translate(q)
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	return auto.String()
}

// automataRuns renders the automata pinned in testdata/automata.golden:
// the full optimized and unoptimized text of every curated query, then
// one SHA-256 pair per generated query. Entries are keyed by embedding
// and index, so a change to how xpath prints a query leaves them be.
func automataRuns(t *testing.T) string {
	t.Helper()
	var b, hashes strings.Builder
	r := rand.New(rand.NewSource(29))
	for _, g := range goldenEmbeddings(t) {
		opt, err := translate.New(g.emb)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		unopt, err := translate.NewWithOptions(g.emb, translate.Options{NoOptimize: true})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for i, qs := range g.queries {
			q, err := xpath.Parse(qs)
			if err != nil {
				t.Fatalf("%s %d: %v", g.name, i, err)
			}
			fmt.Fprintf(&b, "=== %s %d: %s ===\n--- optimized\n%s--- unoptimized\n%s",
				g.name, i, qs, automatonText(opt, q), automatonText(unopt, q))
		}
		for i := 0; i < randomPerEmbedding; i++ {
			q := xpath.RandomQuery(r, g.emb.Source, xpath.GenOptions{TranslatableOnly: true, MaxDepth: 3})
			fmt.Fprintf(&hashes, "%s %03d %x %x\n", g.name, i,
				sha256.Sum256([]byte(automatonText(opt, q))), sha256.Sum256([]byte(automatonText(unopt, q))))
		}
	}
	fmt.Fprintf(&b, "=== generated: %d queries per embedding, optimized and unoptimized SHA-256 ===\n", randomPerEmbedding)
	b.WriteString(hashes.String())
	return b.String()
}

// TestAutomataGolden pins translated automata byte for byte. The
// optimized entries predate the single qualifier compiler shared with
// anfa.FromExpr; the unoptimized ones were generated once translation
// visited final labels in sorted order.
func TestAutomataGolden(t *testing.T) {
	got := automataRuns(t)
	path := filepath.Join("testdata", "automata.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("automata diverged from %s:\n%s", path, firstDiff(string(want), got))
	}
}

// firstDiff reports the first differing line of two renderings.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\nwant %q\ngot  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(wl), len(gl))
}
