package pipeline_test

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/pipeline"
	"repro/internal/xmltree"
)

// pairEmbedding maps s(a, b) onto t(aa, bb) edge for edge.
func pairEmbedding() *embedding.Embedding {
	src := dtd.MustNew("s",
		dtd.D("s", dtd.Concat("a", "b")),
		dtd.D("a", dtd.Str()),
		dtd.D("b", dtd.Str()),
	)
	tgt := dtd.MustNew("t",
		dtd.D("t", dtd.Concat("aa", "bb")),
		dtd.D("aa", dtd.Str()),
		dtd.D("bb", dtd.Str()),
	)
	e := embedding.New(src, tgt)
	e.MapType("s", "t").MapType("a", "aa").MapType("b", "bb")
	e.SetPath(embedding.Ref("s", "a"), "aa").
		SetPath(embedding.Ref("s", "b"), "bb").
		SetPath(embedding.Ref("a", embedding.StrChild), "text()").
		SetPath(embedding.Ref("b", embedding.StrChild), "text()")
	return e
}

// TestRunRejectsBrokenEmbedding pins Run's setup contract: a broken
// embedding fails the run before any document is opened, whether the
// run streams σd, streams σd⁻¹ or applies a Transform, and also when
// the embedding compiled fine before SetPath broke it.
func TestRunRejectsBrokenEmbedding(t *testing.T) {
	// Each case names the broken embedding and the cause its setup
	// error must report.
	broken := map[string]struct {
		build func() *embedding.Embedding
		cause string
	}{
		"lambda-not-total": {cause: "λ is not total", build: func() *embedding.Embedding {
			e := pairEmbedding()
			delete(e.Lambda, "b")
			return e
		}},
		"not-prefix-free": {cause: "prefix-free condition violated", build: func() *embedding.Embedding {
			e := pairEmbedding()
			e.MapType("b", "aa").SetPath(embedding.Ref("s", "b"), "aa")
			return e
		}},
		"broken-after-compile": {cause: `path ends at "bb"`, build: func() *embedding.Embedding {
			e := pairEmbedding()
			for _, op := range []pipeline.Op{pipeline.Forward, pipeline.Inverse} {
				if _, _, err := pipeline.Run(context.Background(), e, nil, pipeline.Options{Op: op}); err != nil {
					t.Fatalf("valid embedding rejected: %v", err)
				}
			}
			// path(s, a) = bb ends at bb, not at λ(a) = aa.
			return e.SetPath(embedding.Ref("s", "a"), "bb")
		}},
	}
	identity := func(_ context.Context, doc *xmltree.Tree) (*xmltree.Tree, error) { return doc, nil }
	runs := map[string]pipeline.Options{
		"forward":   {Op: pipeline.Forward},
		"inverse":   {Op: pipeline.Inverse},
		"transform": {Op: pipeline.Forward, Transform: identity},
	}
	for bname, bc := range broken {
		for rname, opts := range runs {
			t.Run(bname+"/"+rname, func(t *testing.T) {
				opened := 0
				doc := pipeline.Doc{Name: "doc", Open: func() (io.ReadCloser, error) {
					opened++
					return io.NopCloser(strings.NewReader(`<s><a>x</a><b>y</b></s>`)), nil
				}}
				res, _, err := pipeline.Run(context.Background(), bc.build(), []pipeline.Doc{doc, doc}, opts)
				if err == nil || !strings.HasPrefix(err.Error(), "pipeline: invalid embedding: ") ||
					!strings.Contains(err.Error(), bc.cause) {
					t.Fatalf("err = %v, want the setup error naming %q", err, bc.cause)
				}
				if res != nil {
					t.Errorf("results = %+v, want none", res)
				}
				if opened != 0 {
					t.Errorf("Doc.Open called %d times, want 0", opened)
				}
			})
		}
	}
}
