// Package corpus carries the real-world schema-evolution workload: a
// checked-in set of public DTDs (DBLP, Mondial, XMark, a NewsML-style
// feed) adapted to the paper's normal form, each paired with a
// hand-written "evolved" variant that the original provably embeds
// into, plus representative X_R queries over each source schema. On
// top of the corpus sits a runner (Run) that drives the full pipeline
// per pair — embedding search under every heuristic, instance
// migration, and translated-query preservation — and emits a
// machine-readable quality report, giving the search heuristics their
// first realistic comparison beyond synthetic schemas.
//
// An optional differential layer (build tag "xmllint", see
// xmllint_diff.go) cross-validates the X_R evaluator and the migrated
// documents against libxml2's xmllint on the shared XPath 1.0
// fragment; the core package stays stdlib-only.
package corpus

import (
	"bufio"
	"embed"
	"fmt"
	"path"
	"sort"
	"strings"

	"repro/internal/dtd"
	"repro/internal/xpath"
)

//go:embed testdata
var corpusFS embed.FS

// Pair is one schema-evolution scenario: a real-world source schema
// and its hand-evolved target, with curated source-side queries.
type Pair struct {
	// Name is the corpus directory name (dblp, mondial, ...).
	Name string
	// Source and Target are the parsed, normalized schemas.
	Source, Target *dtd.DTD
	// SourceText and TargetText are the raw DTD file contents, handed
	// verbatim to external validators (xmllint --dtdvalid).
	SourceText, TargetText string
	// Queries are the curated X_R queries over the source schema.
	Queries []xpath.Expr
	// QueryTexts are the corresponding source texts, index-aligned
	// with Queries.
	QueryTexts []string
}

// Pairs loads every schema-evolution pair in the corpus, sorted by
// name. The corpus is embedded, so loading cannot depend on the
// working directory.
func Pairs() ([]Pair, error) {
	entries, err := corpusFS.ReadDir("testdata")
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var out []Pair
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		p, err := loadPair(e.Name())
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if len(out) == 0 {
		return nil, fmt.Errorf("corpus: no schema pairs embedded")
	}
	return out, nil
}

// MustPairs is Pairs panicking on error, for use in tests and
// benchmarks over the checked-in corpus (which loading must accept).
func MustPairs() []Pair {
	ps, err := Pairs()
	if err != nil {
		panic(err)
	}
	return ps
}

func loadPair(name string) (Pair, error) {
	dir := path.Join("testdata", name)
	srcText, err := corpusFS.ReadFile(path.Join(dir, "source.dtd"))
	if err != nil {
		return Pair{}, fmt.Errorf("corpus: %s: %w", name, err)
	}
	tgtText, err := corpusFS.ReadFile(path.Join(dir, "target.dtd"))
	if err != nil {
		return Pair{}, fmt.Errorf("corpus: %s: %w", name, err)
	}
	src, err := dtd.Parse(string(srcText), "")
	if err != nil {
		return Pair{}, fmt.Errorf("corpus: %s: source.dtd: %w", name, err)
	}
	tgt, err := dtd.Parse(string(tgtText), "")
	if err != nil {
		return Pair{}, fmt.Errorf("corpus: %s: target.dtd: %w", name, err)
	}
	p := Pair{
		Name:       name,
		Source:     src,
		Target:     tgt,
		SourceText: string(srcText),
		TargetText: string(tgtText),
	}
	qbytes, err := corpusFS.ReadFile(path.Join(dir, "queries.xq"))
	if err != nil {
		return Pair{}, fmt.Errorf("corpus: %s: %w", name, err)
	}
	sc := bufio.NewScanner(strings.NewReader(string(qbytes)))
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := xpath.Parse(line)
		if err != nil {
			return Pair{}, fmt.Errorf("corpus: %s: queries.xq line %d: %w", name, ln, err)
		}
		p.Queries = append(p.Queries, q)
		p.QueryTexts = append(p.QueryTexts, line)
	}
	return p, nil
}
