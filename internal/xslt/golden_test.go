package xslt_test

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
	"repro/internal/workload"
	"repro/internal/xslt"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stylesheets.golden from the current generators")

// syntheticSheets is the number of oracle-style embeddings whose
// stylesheets the golden pins by hash.
const syntheticSheets = 1000

// sheets serializes both stylesheets of an embedding.
func sheets(t *testing.T, name string, emb *embedding.Embedding) (fwd, inv string) {
	t.Helper()
	f, err := xslt.ForwardStylesheet(emb)
	if err != nil {
		t.Fatalf("%s: ForwardStylesheet: %v", name, err)
	}
	i, err := xslt.InverseStylesheet(emb)
	if err != nil {
		t.Fatalf("%s: InverseStylesheet: %v", name, err)
	}
	return f.Serialize(), i.Serialize()
}

// stylesheetRuns renders the stylesheets pinned in
// testdata/stylesheets.golden: full text for the hand-built class,
// student and auction embeddings and for QualityOrdered's embeddings of
// the corpus pairs, then one SHA-256 per sheet for synthetic noisy-copy
// embeddings built as the conformance oracle builds them. A header
// counts the forward-sheet features the synthetic set exercises, so a
// change to the generator that stops covering one shows in the diff.
func stylesheetRuns(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	full := func(name string, emb *embedding.Embedding) {
		fwd, inv := sheets(t, name, emb)
		fmt.Fprintf(&b, "=== %s forward ===\n%s=== %s inverse ===\n%s", name, fwd, name, inv)
	}
	full("class", workload.ClassEmbedding())
	full("student", workload.StudentEmbedding())
	full("auction", workload.AuctionEmbedding())
	for _, p := range corpus.MustPairs() {
		res, err := search.Find(p.Source, p.Target, match.Lexical(p.Source, p.Target, 0),
			search.Options{Heuristic: search.QualityOrdered, Seed: 1})
		if err != nil || res.Embedding == nil {
			t.Fatalf("corpus %s: no QualityOrdered embedding (err %v)", p.Name, err)
		}
		full("corpus "+p.Name, res.Embedding)
	}

	// Each feature is recognized by one line of a serialized forward
	// sheet.
	features := []struct {
		name string
		line func(string) bool
	}{
		{"repeated concat child", func(l string) bool { return strings.Contains(l, "[position() = ") }},
		{"disjunct guard", func(l string) bool {
			return strings.HasPrefix(l, `  <xsl:template match="`) && strings.Contains(l, "[")
		}},
		{"star mode", func(l string) bool { return strings.Contains(l, ` mode="M-`) }},
		{"mindef literal", func(l string) bool { return strings.TrimSpace(l) == embedding.DefaultText }},
	}
	covered := make([]int, len(features))
	var hashes strings.Builder
	r := rand.New(rand.NewSource(28))
	for i := 0; i < syntheticSheets; i++ {
		src, err := workload.SyntheticDTDOpts(r, 4+r.Intn(9), workload.SynthOptions{ConcatRepeatFrac: 0.35})
		if err != nil {
			t.Fatalf("synthetic %d: %v", i, err)
		}
		nc := workload.Noise(src, workload.NoiseLevel(r.Float64()*0.8), r)
		emb, err := workload.TruthEmbedding(src, nc)
		if err != nil {
			t.Fatalf("synthetic %d: %v", i, err)
		}
		fwd, inv := sheets(t, fmt.Sprintf("synthetic %d", i), emb)
		lines := strings.Split(fwd, "\n")
		for k, f := range features {
			for _, l := range lines {
				if f.line(l) {
					covered[k]++
					break
				}
			}
		}
		fmt.Fprintf(&hashes, "%04d %x %x\n", i, sha256.Sum256([]byte(fwd)), sha256.Sum256([]byte(inv)))
	}
	fmt.Fprintf(&b, "=== synthetic: %d embeddings, forward and inverse SHA-256 ===\n", syntheticSheets)
	for k, f := range features {
		fmt.Fprintf(&b, "forward sheets with a %s: %d\n", f.name, covered[k])
	}
	b.WriteString(hashes.String())
	return b.String()
}

// TestStylesheetsGolden pins both generated stylesheets byte for byte.
// The golden file was generated before the σd generator became a
// renderer of the compiled stream program, so it holds the rendering to
// the output of the generator it replaced.
func TestStylesheetsGolden(t *testing.T) {
	got := stylesheetRuns(t)
	path := filepath.Join("testdata", "stylesheets.golden")
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
		t.Errorf("stylesheets diverged from %s:\n%s", path, firstDiff(string(want), got))
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
