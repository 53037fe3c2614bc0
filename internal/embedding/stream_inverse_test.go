package embedding_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/embedding"
	"repro/internal/guard"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// treeInvert is the reference path: parse, Invert, source validation,
// encode.
func treeInvert(emb *embedding.Embedding, doc string, lim guard.Limits) (string, error) {
	tgt, err := xmltree.ParseLimits(strings.NewReader(doc), lim)
	if err != nil {
		return "", err
	}
	back, err := emb.Invert(tgt)
	if err != nil {
		return "", err
	}
	if err := back.Validate(emb.Source); err != nil {
		return "", err
	}
	return back.String(), nil
}

func streamInvert(p *embedding.StreamProgram, doc string, lim guard.Limits) (string, embedding.StreamStats, error) {
	var out bytes.Buffer
	st, err := p.Run(context.Background(), strings.NewReader(doc), &out,
		embedding.StreamOptions{Limits: lim})
	return out.String(), st, err
}

// forwardImage is σd(T) serialized, the inverse's input.
func forwardImage(t testing.TB, emb *embedding.Embedding, src *xmltree.Tree) string {
	t.Helper()
	res, err := emb.Apply(src)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return res.Tree.String()
}

// TestStreamInvertMatchesInvert is the core differential: on σd(T) the
// stream inverse writes exactly Invert's serialization, which is T.
func TestStreamInvertMatchesInvert(t *testing.T) {
	for name, fx := range streamFixtures() {
		emb := fx.emb
		t.Run(name, func(t *testing.T) {
			p, err := emb.CompileStreamInverse()
			if err != nil {
				t.Fatalf("CompileStreamInverse: %v", err)
			}
			fallbacks := 0
			for seed := int64(0); seed < 25; seed++ {
				r := rand.New(rand.NewSource(seed))
				src := xmltree.MustGenerate(emb.Source, r, xmltree.GenOptions{StarMax: 4})
				img := forwardImage(t, emb, src)
				want, err := treeInvert(emb, img, guard.Limits{})
				if err != nil {
					t.Fatalf("seed %d: tree inverse: %v", seed, err)
				}
				if want != src.String() {
					t.Fatalf("seed %d: tree inverse does not recover T", seed)
				}
				got, st, err := streamInvert(p, img, guard.Limits{})
				if err != nil {
					t.Fatalf("seed %d: stream inverse: %v", seed, err)
				}
				if got != want {
					t.Fatalf("seed %d: stream inverse differs:\n got:\n%s\nwant:\n%s", seed, got, want)
				}
				if st.OutBytes != int64(len(want)) {
					t.Errorf("seed %d: OutBytes = %d, want %d", seed, st.OutBytes, len(want))
				}
				fallbacks += st.Fallbacks
			}
			// Target order is source order for class and student; the
			// auction targets reorder siblings, so the inverse buffers.
			if fx.streaming != (fallbacks == 0) {
				t.Errorf("fallbacks = %d, streaming fixture = %v", fallbacks, fx.streaming)
			}
		})
	}
}

// schoolImage is the σd image of one conforming class document under
// workload.ClassEmbedding, written out so each edge case below is a
// visible edit of it. "#s" is the minimum default of a str type.
const schoolImage = `<school><courses><current>` +
	`<course><basic><cno>CS331</cno><credit>#s</credit><class><semester>` +
	`<title>DB</title><year>#s</year><term>#s</term><instructor>#s</instructor>` +
	`</semester></class></basic><category><mandatory><regular><required><prereq>` +
	innerCourse +
	`</prereq></required></regular></mandatory></category></course>` +
	`</current><history/></courses><students/></school>`

const (
	innerBasic = `<basic><cno>CS210</cno><credit>#s</credit><class><semester>` +
		`<title>Algo</title><year>#s</year><term>#s</term><instructor>#s</instructor>` +
		`</semester></class></basic>`
	innerCategory = `<category><advanced><project>p</project></advanced></category>`
	innerCourse   = `<course>` + innerBasic + innerCategory + `</course>`
)

// TestStreamInvertEdgeCases pins, on hand-edited targets, that the
// stream inverse accepts and rejects on exactly the tree inverse's
// conditions: content off the paths is ignored, siblings may come in
// any order, and a missing step, two disjuncts, a foreign child under a
// star node or a missing text are rejected.
func TestStreamInvertEdgeCases(t *testing.T) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStreamInverse()
	if err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) string {
		if !strings.Contains(schoolImage, old) {
			t.Fatalf("edit target %q not in the image", old)
		}
		return strings.Replace(schoolImage, old, new, 1)
	}
	const (
		firstSemester = `<semester><title>DB</title>`
		outerClass    = `<class>` + firstSemester + `<year>#s</year><term>#s</term><instructor>#s</instructor></semester></class>`
	)
	cases := []struct {
		name, doc string
		ok        bool
		buffers   bool
	}{
		{name: "image", doc: schoolImage, ok: true},
		{name: "empty-star", doc: `<school><courses><current/></courses></school>`, ok: true},
		{name: "no-star-prefix", doc: `<school><students/></school>`, ok: true},
		{name: "second-prefix-node", doc: edit(`</current>`, `</current><current><junk/></current>`), ok: true},
		{name: "foreign-off-path", doc: edit(`<credit>#s</credit>`, `<credit><x>junk<y/></x></credit><zzz/>`), ok: true},
		{name: "text-on-inner-node", doc: edit(`<basic>`, `<basic>stray`), ok: true},
		{name: "off-path-sibling-first", doc: edit(`<cno>CS331</cno><credit>#s</credit>`, `<credit>#s</credit><cno>CS331</cno>`), ok: true},
		{name: "category-before-basic", doc: edit(innerBasic+innerCategory, innerCategory+innerBasic), ok: true, buffers: true},
		{name: "title-before-cno", doc: edit(`<cno>CS331</cno><credit>#s</credit>`+outerClass, outerClass+`<cno>CS331</cno>`),
			ok: true, buffers: true},
		{name: "extra-semester-after", doc: edit(`</semester></class></basic><category><mandatory>`,
			`</semester><semester><title>other</title></semester></class></basic><category><mandatory>`), ok: true},
		{name: "extra-semester-before", doc: edit(firstSemester, `<semester><title>X</title></semester>`+firstSemester), ok: true},
		{name: "extra-same-label", doc: edit(`<cno>CS331</cno>`, `<cno>CS331</cno><cno>extra</cno>`), ok: true},
		{name: "text-after-element", doc: edit(`<cno>CS331</cno>`, `<cno><b/>CS331<c/>more</cno>`), ok: true},
		{name: "second-disjunct-same-label", doc: edit(`<project>p</project>`, `<project>p</project><project>q</project>`), ok: true},
		{name: "wrong-root", doc: strings.Replace(strings.Replace(schoolImage, "<school>", "<db>", 1), "</school>", "</db>", 1)},
		{name: "missing-step", doc: edit(`<cno>CS210</cno>`, ``)},
		{name: "missing-late-step", doc: edit(innerCategory, ``)},
		{name: "missing-step-after-buffering", doc: edit(innerBasic+innerCategory, innerCategory)},
		{name: "missing-text", doc: edit(`<cno>CS210</cno>`, `<cno/>`)},
		{name: "both-disjuncts", doc: edit(`<category><advanced>`, `<category><mandatory><regular><required><prereq/></required></regular></mandatory><advanced>`)},
		{name: "no-disjunct", doc: edit(`<advanced><project>p</project></advanced>`, ``)},
		{name: "foreign-under-star", doc: edit(`<current>`, `<current><x/>`)},
		{name: "foreign-course-under-star", doc: edit(`<current>`, `<current><x>`+innerBasic+innerCategory+`</x>`)},
		{name: "text-under-star", doc: edit(`<current>`, `<current>loose`)},
		{name: "malformed", doc: schoolImage[:len(schoolImage)-3]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, terr := treeInvert(emb, c.doc, guard.Limits{})
			got, st, serr := streamInvert(p, c.doc, guard.Limits{})
			if (terr == nil) != c.ok {
				t.Fatalf("tree inverse err = %v, want ok = %v", terr, c.ok)
			}
			if (serr == nil) != c.ok {
				t.Fatalf("stream inverse err = %v, want ok = %v (tree err = %v)", serr, c.ok, terr)
			}
			if c.ok && got != want {
				t.Fatalf("outputs differ:\n got:\n%s\nwant:\n%s", got, want)
			}
			if c.ok && (st.Fallbacks > 0) != c.buffers {
				t.Errorf("fallbacks = %d, want buffering = %v", st.Fallbacks, c.buffers)
			}
			if !c.ok {
				var se *embedding.StreamError
				if !errors.As(serr, &se) {
					t.Fatalf("error %v is not a *StreamError", serr)
				}
			}
		})
	}
}

// TestStreamInvertErrorStages checks the stage tags: malformed XML is a
// parse failure, a target outside the image of σd a map failure, and a
// broken sink a write failure.
func TestStreamInvertErrorStages(t *testing.T) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStreamInverse()
	if err != nil {
		t.Fatal(err)
	}
	stage := func(doc string, w io.Writer) string {
		var se *embedding.StreamError
		_, err := p.Run(context.Background(), strings.NewReader(doc), w, embedding.StreamOptions{})
		if !errors.As(err, &se) {
			t.Fatalf("%q: error %v is not a *StreamError", doc, err)
		}
		return se.Stage
	}
	if s := stage("<school><courses>", io.Discard); s != "parse" {
		t.Errorf("malformed: stage %q, want parse", s)
	}
	if s := stage("<db/>", io.Discard); s != "map" {
		t.Errorf("wrong root: stage %q, want map", s)
	}
	if s := stage(schoolImage, failWriter{}); s != "write" {
		t.Errorf("broken sink: stage %q, want write", s)
	}
}

// TestStreamInvertLimitsAndCancel: the tokenizer limits and the
// buffered-fallback charge surface as *guard.LimitError, and a canceled
// context as *guard.CancelError, exactly as on the forward stream.
func TestStreamInvertLimitsAndCancel(t *testing.T) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStreamInverse()
	if err != nil {
		t.Fatal(err)
	}
	var le *guard.LimitError
	if _, _, err := streamInvert(p, schoolImage, guard.Limits{MaxDepth: 5}); !errors.As(err, &le) {
		t.Errorf("MaxDepth: err = %v, want *guard.LimitError", err)
	}
	if _, _, err := streamInvert(p, schoolImage, guard.Limits{MaxNodes: 10}); !errors.As(err, &le) {
		t.Errorf("MaxNodes: err = %v, want *guard.LimitError", err)
	}

	auction := workload.AuctionEmbedding()
	ap, err := auction.CompileStreamInverse()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	img := forwardImage(t, auction, xmltree.MustGenerate(auction.Source, r, xmltree.GenOptions{StarMax: 6, DepthBudget: 8}))
	_, st, err := streamInvert(ap, img, guard.Limits{})
	if err != nil || st.Fallbacks == 0 || st.PeakBufferedBytes == 0 {
		t.Fatalf("auction inverse: err = %v, fallbacks = %d, peak = %d; want buffering", err, st.Fallbacks, st.PeakBufferedBytes)
	}
	// A buffer budget below the peak, with the input itself allowed
	// through, fails on the fallback's charge.
	if _, _, err := streamInvert(ap, img, guard.Limits{MaxInputBytes: st.PeakBufferedBytes - 1}); !errors.As(err, &le) {
		t.Errorf("buffered charge: err = %v, want *guard.LimitError", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = p.Run(ctx, strings.NewReader(schoolImage), &bytes.Buffer{}, embedding.StreamOptions{})
	var ce *guard.CancelError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled: err = %v, want *guard.CancelError matching context.Canceled", err)
	}
}

// bigClassSource is a conforming class document of n class units.
func bigClassSource(n int) string {
	var b strings.Builder
	b.WriteString("<db>")
	for i := 0; i < n; i++ {
		b.WriteString("<class><cno>CS331</cno><title>DB &amp; more</title><type><regular><prereq>" +
			"<class><cno>CS210</cno><title>Algo</title><type><project>p</project></type></class>" +
			"</prereq></regular></type></class>")
	}
	b.WriteString("</db>")
	return b.String()
}

// TestStreamInvertOneByteReader runs a target of more than 64k nodes
// through readers that return one byte per call, or half of what was
// asked: tokens and names straddle buffer refills, and the output must
// still be the tree inverse's, with no buffering.
func TestStreamInvertOneByteReader(t *testing.T) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStreamInverse()
	if err != nil {
		t.Fatal(err)
	}
	src, err := xmltree.ParseString(bigClassSource(1600))
	if err != nil {
		t.Fatal(err)
	}
	res, err := emb.Apply(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Tree.Size(); n < 64000 {
		t.Fatalf("target has %d nodes, want at least 64k", n)
	}
	img := res.Tree.String()
	want := src.String()
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	} {
		var out bytes.Buffer
		st, err := p.Run(context.Background(), wrap(strings.NewReader(img)), &out,
			embedding.StreamOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.String() != want {
			t.Fatalf("%s: inverse differs from T", name)
		}
		if st.Fallbacks != 0 || st.PeakBufferedBytes != 0 {
			t.Errorf("%s: fallbacks = %d, peak = %d; the class inverse streams", name, st.Fallbacks, st.PeakBufferedBytes)
		}
		if st.InBytes != int64(len(img)) {
			t.Errorf("%s: InBytes = %d, want %d", name, st.InBytes, len(img))
		}
	}
}

// FuzzStreamInvert is the stream-vs-tree inverse differential: for an
// arbitrary document, under the class embedding (a disjunction, stars,
// pinned star steps) and the auction embedding (targets that reorder
// siblings), either both inverses fail, or both succeed with
// byte-identical output. Seeds come from internal/fuzzseed's checked-in
// corpus (written by xse-oracle -emit-corpus) plus the images below.
func FuzzStreamInvert(f *testing.F) {
	embs := []*embedding.Embedding{workload.ClassEmbedding(), workload.AuctionEmbedding()}
	progs := make([]*embedding.StreamProgram, len(embs))
	for i, e := range embs {
		p, err := e.CompileStreamInverse()
		if err != nil {
			f.Fatal(err)
		}
		progs[i] = p
	}
	lim := guard.Limits{MaxDepth: 60, MaxInputBytes: 1 << 16, MaxNodes: 4096}
	f.Add(schoolImage)
	f.Add(strings.Replace(schoolImage, "<category><advanced>",
		"<category><mandatory><regular><required><prereq/></required></regular></mandatory><advanced>", 1))
	r := rand.New(rand.NewSource(5))
	f.Add(forwardImage(f, embs[1], xmltree.MustGenerate(embs[1].Source, r, xmltree.GenOptions{StarMax: 2, DepthBudget: 6})))
	f.Fuzz(func(t *testing.T, doc string) {
		for i, e := range embs {
			want, terr := treeInvert(e, doc, lim)
			got, _, serr := streamInvert(progs[i], doc, lim)
			if (terr == nil) != (serr == nil) {
				t.Fatalf("embedding %d: path disagreement on %q: tree err=%v, stream err=%v", i, doc, terr, serr)
			}
			if terr == nil && got != want {
				t.Fatalf("embedding %d: output divergence on %q:\n got:\n%s\nwant:\n%s", i, doc, got, want)
			}
		}
	})
}
