package embedding_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// treeMigrate is the reference path: Apply + encode.
func treeMigrate(t *testing.T, emb *embedding.Embedding, doc string) (string, error) {
	t.Helper()
	src, err := xmltree.ParseString(doc)
	if err != nil {
		return "", err
	}
	res, err := emb.Apply(src)
	if err != nil {
		return "", err
	}
	return res.Tree.String(), nil
}

func streamMigrate(emb *embedding.Embedding, doc string, opts embedding.StreamOptions) (string, embedding.StreamStats, error) {
	p, err := emb.CompileStream()
	if err != nil {
		return "", embedding.StreamStats{}, err
	}
	var out bytes.Buffer
	st, err := p.Run(context.Background(), strings.NewReader(doc), &out, opts)
	return out.String(), st, err
}

// streamFixtures pairs each workload embedding with whether its
// productions compile fully streaming (hole order = document order) or
// legitimately need the bounded reorder fallback for some productions.
func streamFixtures() map[string]struct {
	emb       *embedding.Embedding
	streaming bool
} {
	return map[string]struct {
		emb       *embedding.Embedding
		streaming bool
	}{
		"class":   {workload.ClassEmbedding(), true},
		"student": {workload.StudentEmbedding(), true},
		"auction": {workload.AuctionEmbedding(), false},
	}
}

// TestStreamMatchesApply is the core differential: streaming output
// must be byte-identical to the tree path on generated documents.
func TestStreamMatchesApply(t *testing.T) {
	for name, fx := range streamFixtures() {
		emb := fx.emb
		t.Run(name, func(t *testing.T) {
			p, err := emb.CompileStream()
			if err != nil {
				t.Fatalf("CompileStream: %v", err)
			}
			for seed := int64(0); seed < 25; seed++ {
				r := rand.New(rand.NewSource(seed))
				doc := xmltree.MustGenerate(emb.Source, r, xmltree.GenOptions{StarMax: 4}).String()
				want, err := treeMigrate(t, emb, doc)
				if err != nil {
					t.Fatalf("seed %d: Apply: %v", seed, err)
				}
				var out bytes.Buffer
				st, err := p.Run(context.Background(), strings.NewReader(doc), &out, embedding.StreamOptions{})
				if err != nil {
					t.Fatalf("seed %d: stream: %v", seed, err)
				}
				if out.String() != want {
					t.Fatalf("seed %d: stream output differs from tree path\nsource:\n%s\n got:\n%s\nwant:\n%s",
						seed, doc, out.String(), want)
				}
				if st.OutBytes != int64(out.Len()) {
					t.Errorf("seed %d: OutBytes = %d, wrote %d", seed, st.OutBytes, out.Len())
				}
				if st.InBytes != int64(len(doc)) {
					t.Errorf("seed %d: InBytes = %d, doc is %d", seed, st.InBytes, len(doc))
				}
				if st.Tokens <= 0 || st.Nodes <= 0 || st.MaxDepth <= 0 {
					t.Errorf("seed %d: degenerate stats %+v", seed, st)
				}
				if fx.streaming {
					if st.Fallbacks != 0 || st.PeakBufferedBytes != 0 {
						t.Errorf("seed %d: non-reordering embedding took fallbacks: %+v", seed, st)
					}
				} else if st.PeakBufferedBytes > 64<<10 {
					// Reordering productions buffer per node, not per
					// document: the peak must stay modest no matter the
					// generated size.
					t.Errorf("seed %d: peak buffered bytes %d not bounded", seed, st.PeakBufferedBytes)
				}
			}
		})
	}
}

// TestCompileStreamMemoized: on an embedding nobody validated,
// CompileStream validates, compiles and runs like the tree path, and a
// second call returns the same program.
func TestCompileStreamMemoized(t *testing.T) {
	emb := workload.ClassEmbedding()
	doc := xmltree.MustGenerate(emb.Source, rand.New(rand.NewSource(7)), xmltree.GenOptions{StarMax: 3}).String()
	got, _, err := streamMigrate(emb, doc, embedding.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := treeMigrate(t, emb, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("streamed σd differs from tree path")
	}
	p1, _ := emb.CompileStream()
	p2, _ := emb.CompileStream()
	if p1 != p2 {
		t.Error("CompileStream recompiled an unchanged embedding")
	}
}

// reorderEmbedding maps a source concatenation (a, b) to a target that
// declares them in the opposite order (bb, aa): the instance mapping
// must emit b's fragment before a's, which genuinely needs buffering.
func reorderEmbedding(t *testing.T) *embedding.Embedding {
	t.Helper()
	src := dtd.MustNew("s",
		dtd.D("s", dtd.Concat("a", "b")),
		dtd.D("a", dtd.Str()),
		dtd.D("b", dtd.Str()),
	)
	tgt := dtd.MustNew("t",
		dtd.D("t", dtd.Concat("bb", "aa")),
		dtd.D("aa", dtd.Str()),
		dtd.D("bb", dtd.Str()),
	)
	e := embedding.New(src, tgt)
	e.MapType("s", "t").MapType("a", "aa").MapType("b", "bb")
	e.SetPath(embedding.Ref("s", "a"), "aa").
		SetPath(embedding.Ref("s", "b"), "bb").
		SetPath(embedding.Ref("a", embedding.StrChild), "text()").
		SetPath(embedding.Ref("b", embedding.StrChild), "text()")
	if err := e.Validate(nil); err != nil {
		t.Fatalf("reorder fixture invalid: %v", err)
	}
	return e
}

// TestFragmentsView reads the compiled σd fragments through the
// read-only view: the reordering concatenation's holes come out in
// target order, a str type's text hole sits inside its image, and
// the view knows no type outside the source schema and nothing of a
// σd⁻¹ program.
func TestFragmentsView(t *testing.T) {
	emb := reorderEmbedding(t)
	p, err := emb.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	render := func(f embedding.Fragment) string {
		var b strings.Builder
		for i := 0; i < f.Len(); i++ {
			code, str, arg := f.Op(i)
			switch code {
			case embedding.OpStart:
				fmt.Fprintf(&b, "<%s>", str)
			case embedding.OpEnd:
				b.WriteString("</>")
			case embedding.OpText:
				b.WriteString(str)
			case embedding.OpTextHole:
				b.WriteString("#text")
			case embedding.OpChild:
				fmt.Fprintf(&b, "#%d", arg)
			}
		}
		return b.String()
	}
	for a, want := range map[string]string{"s": "<t>#1#0</>", "a": "<aa>#text</>", "b": "<bb>#text</>"} {
		v, ok := p.Fragments(a)
		if !ok {
			t.Fatalf("no fragments for source type %q", a)
		}
		if got := render(v.Frag()); got != want {
			t.Errorf("fragment of %q = %s, want %s", a, got, want)
		}
	}
	if _, ok := p.Fragments("t"); ok {
		t.Error("view answered for a target type")
	}
	inv, err := emb.CompileStreamInverse()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := inv.Fragments("s"); ok {
		t.Error("view answered for a σd⁻¹ program")
	}
}

// TestStreamReorderFallback checks the buffered path: identical bytes,
// and the fallback is visible in the stats.
func TestStreamReorderFallback(t *testing.T) {
	emb := reorderEmbedding(t)
	doc := "<s><a>first</a><b>second</b></s>"
	want, err := treeMigrate(t, emb, doc)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	got, st, err := streamMigrate(emb, doc, embedding.StreamOptions{})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if got != want {
		t.Fatalf("reorder output differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(got, "<bb>second</bb>") || strings.Index(got, "<bb>") > strings.Index(got, "<aa>") {
		t.Fatalf("children not reordered:\n%s", got)
	}
	if st.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", st.Fallbacks)
	}
	if st.PeakBufferedBytes <= 0 {
		t.Errorf("PeakBufferedBytes = %d, want > 0", st.PeakBufferedBytes)
	}
}

// TestStreamConformance rejects the same documents the tree path
// rejects.
func TestStreamConformance(t *testing.T) {
	emb := workload.ClassEmbedding()
	bad := []struct {
		name string
		doc  string
	}{
		{"wrong-root", "<notdb/>"},
		{"unknown-element", "<db><zzz/></db>"},
		{"wrong-child", "<db><class><title>t</title><cno>c</cno><type><project>p</project></type></class></db>"},
		{"missing-child", "<db><class><cno>c</cno></class></db>"},
		{"str-missing-text", "<db><class><cno></cno><title>t</title><type><project>p</project></type></class></db>"},
		{"str-element-child", "<db><class><cno><x/></cno><title>t</title><type><project>p</project></type></class></db>"},
		{"disj-two-children", "<db><class><cno>c</cno><title>t</title><type><project>p</project><project>q</project></type></class></db>"},
		{"disj-bad-disjunct", "<db><class><cno>c</cno><title>t</title><type><title>x</title></type></class></db>"},
		{"star-bad-child", "<db><title>t</title></db>"},
		{"text-in-star", "<db>stray</db>"},
		{"extra-child", "<db><class><cno>c</cno><title>t</title><type><project>p</project></type><cno>d</cno></class></db>"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := treeMigrate(t, emb, tc.doc); err == nil {
				t.Fatalf("tree path accepted %q", tc.doc)
			}
			_, _, err := streamMigrate(emb, tc.doc, embedding.StreamOptions{})
			if err == nil {
				t.Fatalf("stream accepted %q", tc.doc)
			}
			var se *embedding.StreamError
			if !errors.As(err, &se) || se.Stage != "map" {
				t.Fatalf("error = %v, want map-stage StreamError", err)
			}
		})
	}
}

// TestStreamErrorStages checks the stage tagging: tokenizer failures
// are "parse", conformance is "map" (covered above), sink failures are
// "write".
func TestStreamErrorStages(t *testing.T) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("parse", func(t *testing.T) {
		var out bytes.Buffer
		// Malformed markup: the decoder fails before any token reaches
		// the conformance checks.
		_, err := p.Run(context.Background(), strings.NewReader("<db><cl<"), &out, embedding.StreamOptions{})
		var se *embedding.StreamError
		if !errors.As(err, &se) || se.Stage != "parse" {
			t.Fatalf("error = %v, want parse-stage StreamError", err)
		}
	})
	t.Run("write", func(t *testing.T) {
		doc := xmltree.MustGenerate(emb.Source, rand.New(rand.NewSource(1)), xmltree.GenOptions{StarMax: 8}).String()
		_, err := p.Run(context.Background(), strings.NewReader(doc), failWriter{}, embedding.StreamOptions{})
		var se *embedding.StreamError
		if !errors.As(err, &se) || se.Stage != "write" {
			t.Fatalf("error = %v, want write-stage StreamError", err)
		}
	})
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("sink broken") }

// TestStreamLimits: guard enforcement surfaces through Run with the
// parse stage and the typed limit error.
func TestStreamLimits(t *testing.T) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	doc := xmltree.MustGenerate(emb.Source, rand.New(rand.NewSource(3)), xmltree.GenOptions{StarMax: 6}).String()
	cases := []struct {
		name      string
		lim       guard.Limits
		wantLimit string
	}{
		{"input-bytes", guard.Limits{MaxInputBytes: 32}, "input-bytes"},
		{"depth", guard.Limits{MaxDepth: 2}, "depth"},
		{"nodes", guard.Limits{MaxNodes: 3}, "nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			_, err := p.Run(context.Background(), strings.NewReader(doc), &out,
				embedding.StreamOptions{Limits: tc.lim})
			var le *guard.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("error = %v, want *guard.LimitError", err)
			}
			if le.Limit != tc.wantLimit {
				t.Fatalf("limit = %q, want %q", le.Limit, tc.wantLimit)
			}
		})
	}
}

// TestStreamCancel: a canceled context unwinds with a CancelError.
func TestStreamCancel(t *testing.T) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	doc := xmltree.MustGenerate(emb.Source, rand.New(rand.NewSource(3)), xmltree.GenOptions{StarMax: 3}).String()
	var out bytes.Buffer
	_, err = p.Run(ctx, strings.NewReader(doc), &out, embedding.StreamOptions{})
	var ce *guard.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error = %v, want *guard.CancelError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match context.Canceled", err)
	}
}

// TestStreamMetrics: the xse_stream_* instruments of the process
// registry account a run (read as deltas; the max-depth high-water
// mark is cleared first, as earlier tests raised it).
func TestStreamMetrics(t *testing.T) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	docs := obs.Default().Counter("xse_stream_docs_total", "")
	tokens := obs.Default().Counter("xse_stream_tokens_total", "")
	depth := obs.Default().Gauge("xse_stream_max_depth", "")
	docs0, tokens0 := docs.Value(), tokens.Value()
	depth.Set(0)
	doc := xmltree.MustGenerate(emb.Source, rand.New(rand.NewSource(5)), xmltree.GenOptions{StarMax: 3}).String()
	var out bytes.Buffer
	st, err := p.Run(context.Background(), strings.NewReader(doc), &out, embedding.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := docs.Value() - docs0; got != 1 {
		t.Errorf("docs_total moved by %v, want 1", got)
	}
	if got := tokens.Value() - tokens0; got != uint64(st.Tokens) {
		t.Errorf("tokens_total moved by %v, want %d", got, st.Tokens)
	}
	if got := depth.Value(); got != int64(st.MaxDepth) {
		t.Errorf("max_depth = %v, want %d", got, st.MaxDepth)
	}
}

// FuzzStreamMigrate is the streaming-vs-tree fuzz differential: for an
// arbitrary document, either both paths fail, or both succeed with
// byte-identical output.
func FuzzStreamMigrate(f *testing.F) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStream()
	if err != nil {
		f.Fatal(err)
	}
	lim := guard.Limits{MaxDepth: 60, MaxInputBytes: 1 << 16, MaxNodes: 4096}
	f.Add("<db/>")
	f.Add("<db><class><cno>CS331</cno><title>DB</title><type><project>solo</project></type></class></db>")
	f.Add("<db><class><cno>1</cno><title>t</title><type><regular><prereq/></regular></type></class></db>")
	f.Fuzz(func(t *testing.T, doc string) {
		var want string
		src, err := xmltree.ParseLimits(strings.NewReader(doc), lim)
		treeOK := err == nil
		if treeOK {
			res, aerr := emb.Apply(src)
			if aerr != nil {
				treeOK = false
			} else {
				want = res.Tree.String()
			}
		}
		var out bytes.Buffer
		_, serr := p.Run(context.Background(), strings.NewReader(doc), &out,
			embedding.StreamOptions{Limits: lim})
		if treeOK != (serr == nil) {
			t.Fatalf("path disagreement on %q: tree ok=%v, stream err=%v", doc, treeOK, serr)
		}
		if treeOK && out.String() != want {
			t.Fatalf("output divergence on %q:\n got:\n%s\nwant:\n%s", doc, out.String(), want)
		}
	})
}
