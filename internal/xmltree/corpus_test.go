package xmltree_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"repro/internal/corpus"
	"repro/internal/xmltree"
)

// corpusDoc returns a generated instance of the first corpus pair's
// source schema within 10% of nodes nodes, indented or compact.
// corpus.GenerateSized lands only within the schema's branching
// granularity, so it redraws (at most 200 times) for the closest size.
func corpusDoc(tb testing.TB, nodes int, compact bool) []byte {
	tb.Helper()
	docsOnce.Do(func() {
		src := corpus.MustPairs()[0].Source
		docs = map[int]*xmltree.Tree{}
		for _, n := range []int{1000, 8000, 64000} {
			var best *xmltree.Tree
			for seed := int64(1); seed <= 200; seed++ {
				tr, err := corpus.GenerateSized(src, seed, n)
				if err != nil {
					continue
				}
				if best == nil || abs(tr.Size()-n) < abs(best.Size()-n) {
					best = tr
				}
				if 10*abs(best.Size()-n) <= n {
					break
				}
			}
			if best == nil {
				docsErr = fmt.Errorf("cannot generate a %d-node document", n)
				return
			}
			docs[n] = best
		}
	})
	if docsErr != nil {
		tb.Fatal(docsErr)
	}
	tr := docs[nodes]
	if compact {
		return []byte(tr.StringCompact())
	}
	return []byte(tr.String())
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

var (
	docsOnce sync.Once
	docs     map[int]*xmltree.Tree
	docsErr  error
)

// fuzzSeeds reads the checked-in FuzzXMLDecode corpus.
func fuzzSeeds(t *testing.T) map[string]string {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzXMLDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		body, ok := strings.CutPrefix(string(b), "go test fuzz v1\nstring(")
		body, ok2 := strings.CutSuffix(strings.TrimSpace(body), ")")
		if !ok || !ok2 {
			t.Fatalf("%s: not a string seed", e.Name())
		}
		s, err := strconv.Unquote(body)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		seeds[e.Name()] = s
	}
	return seeds
}

// scanAll drains a Tokenizer over r.
func scanAll(r io.Reader) ([]xmltree.Tok, error) {
	z := xmltree.NewTokenizer(r)
	var toks []xmltree.Tok
	for {
		tok, err := z.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, tok)
		if tok.Kind == xmltree.TokEOF {
			return toks, nil
		}
	}
}

// TestTokenizerBufferBoundaries reads every fuzz seed and a 64k-node
// corpus document one byte per Read and half a buffer per Read: every
// token then straddles a refill somewhere, and the stream must equal
// the whole-buffer scan, errors included.
func TestTokenizerBufferBoundaries(t *testing.T) {
	inputs := fuzzSeeds(t)
	inputs["corpus-64k"] = string(corpusDoc(t, 64000, false))
	inputs["corpus-64k-compact"] = string(corpusDoc(t, 64000, true))
	readers := map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	}
	for name, in := range inputs {
		want, wantErr := scanAll(strings.NewReader(in))
		for rname, wrap := range readers {
			got, gotErr := scanAll(wrap(strings.NewReader(in)))
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Errorf("%s through %s: %d tokens, err %v; whole buffer: %d tokens, err %v",
					name, rname, len(got), gotErr, len(want), wantErr)
			}
		}
	}
}

// BenchmarkParse measures Parse over corpus documents of about 1k, 8k
// and 64k nodes, each indented (as Tree.String writes it) and compact.
func BenchmarkParse(b *testing.B) {
	for _, nodes := range []int{1000, 8000, 64000} {
		for _, compact := range []bool{false, true} {
			blob := corpusDoc(b, nodes, compact)
			form := "indented"
			if compact {
				form = "compact"
			}
			b.Run(fmt.Sprintf("%dk/%s", nodes/1000, form), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(blob)))
				for i := 0; i < b.N; i++ {
					if _, err := xmltree.Parse(bytes.NewReader(blob)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
