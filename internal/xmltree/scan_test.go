package xmltree

import (
	"encoding/xml"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"repro/internal/guard"
)

// scannerEdgeCases are the rules the byte-level scanner must share
// with the encoding/xml oracle, accepted and rejected alike. They also
// seed FuzzXMLDecode (and its checked-in corpus, as scanner-NNN).
var scannerEdgeCases = []string{
	// Line ends: "\r\n" and a lone '\r' become '\n'; "&#xD;" stays.
	"<a>x\r\ny\rz</a>",
	"<a>x&#xD;\r\ny</a>",
	"<a><![CDATA[p\r\nq\rr]]></a>",
	"<a x=\"1\r\n2\"/>",
	// References: the five predefined entities and character
	// references; anything else is rejected.
	"<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x10FFFF;</a>",
	"<a>&foo;</a>",
	"<a>&#0;</a>",
	"<a>&#xD800;</a>",
	"<a>&#x110000;</a>",
	"<a>&#;</a>",
	"<a>&#X41;</a>",
	"<a>&amp</a>",
	"<a>&;</a>",
	"<a>&",
	// Whitespace trimming is strings.TrimSpace on the decoded text.
	"<a>&#160;</a>",
	"<a>\u00a0x\u2003</a>",
	"<a> <!-- c --> x <?p?> y </a>",
	// Comments, PIs and declarations are skipped.
	"<!DOCTYPE a [<!ELEMENT a (#PCDATA)> <!-- a <comment> --> <!ENTITY e \"<x>\">]><a>t</a>",
	"<!DOCTYPE a PUBLIC '>' \"x\"><a/>",
	"<!x <y <z>>><a/>",
	"<a><!-- x -- y --></a>",
	"<a><!- x --></a>",
	"<a><![CDAT[x]]></a>",
	"<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>",
	"<?xml version=\"1.0\" encoding=\"utf-8\"?><a/>",
	"<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?><a/>",
	"<?xml version=\"1.1\"?><a/>",
	"<?xml encoding = \"latin1\"?><a/>",
	"<?pi x?y?><a/>",
	"<?0pi?><a/>",
	// Structure.
	"<a></b>",
	"<a><b></a></b>",
	"</a>",
	"<a>x]]>y</a>",
	"<a>x]]y]>z</a>",
	"<a><![CDATA[x]]]]><![CDATA[>]]></a>",
	"<a><![CDATA[unclosed</a>",
	"<a>\xff</a>",
	"<a>\x01</a>",
	"<a>\uFFFE</a>",
	"<a/>\xff",
	"\ufeff<a/>",
	"x<a/>y",
	"<a/>&bad;",
	"<a/><!-- trailing -->",
	// Attributes are checked, then dropped.
	"<a x='1' y=\"&lt;'\" z=\"]]>\"/>",
	"<a x=\"1\"y=\"2\"></a>",
	"<a x=\"<\"/>",
	"<a x=1/>",
	"<a x/>",
	"<a x=\"1\" x=\"2\"/>",
	"<a a:b:c=\"1\"/>",
	"<a x=\"&#0;\"/>",
	"<a x=\"\xff\"/>",
	"<a x=\"unterminated/>",
	"<a / >",
	// Names: a prefix is dropped, a colon at either end stays, two
	// colons or a local part that cannot start a name are rejected.
	"<ns:a xmlns:ns=\"u\"><ns:b/></ns:a>",
	"<ns:a></ns:a>",
	"<x:a xmlns:x=\"u\" xmlns:y=\"u\"></y:a>",
	"<a xmlns=\"u\"><b/></a>",
	"<xmlns:a/>",
	"<xml:a/>",
	"<:a/>",
	"<a:/>",
	"<a:b:c/>",
	"<A:0/>",
	"<A:-x/>",
	"<é:ü>t</é:ü>",
	"<a\u0300/>",
	"<\u0300a/>",
	"<a\xff/>",
	"<0/>",
	"<a.b-c_d/>",
}

// tokenSource is what both tokenizers offer.
type tokenSource interface{ Next() (Tok, error) }

// drain reads src to TokEOF or its first error.
func drain(src tokenSource) ([]Tok, error) {
	var toks []Tok
	for {
		tok, err := src.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

// sameError reports how two outcomes differ, or "": both succeed or
// both fail, and a *guard.LimitError on either side is equal to one on
// the other.
func sameError(got, want error) string {
	if (got == nil) != (want == nil) {
		return "outcome differs"
	}
	var gl, wl *guard.LimitError
	if errors.As(got, &gl) != errors.As(want, &wl) || gl != nil && !reflect.DeepEqual(*gl, *wl) {
		return "limit error differs"
	}
	return ""
}

// checkOracle holds the Tokenizer and ParseLimits to the encoding/xml
// oracle on one input under lim: the same tokens up to the same
// outcome, and the same tree.
func checkOracle(t *testing.T, src string, lim guard.Limits) {
	t.Helper()
	want, wantErr := drain(newOracleTokenizerLimits(strings.NewReader(src), lim))
	got, gotErr := drain(NewTokenizerLimits(strings.NewReader(src), lim))
	if d := sameError(gotErr, wantErr); d != "" || !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenizer vs oracle on %q (limits %+v): %s\n got %v, %v\nwant %v, %v", src, lim, d, got, gotErr, want, wantErr)
	}
	wantTree, wantErr := oracleParseLimits(strings.NewReader(src), lim)
	gotTree, gotErr := ParseLimits(strings.NewReader(src), lim)
	if d := sameError(gotErr, wantErr); d != "" {
		t.Fatalf("ParseLimits vs oracle on %q (limits %+v): %s\n got %v\nwant %v", src, lim, d, gotErr, wantErr)
	}
	if wantErr == nil && !Equal(gotTree, wantTree) {
		t.Fatalf("ParseLimits vs oracle on %q: %s", src, Diff(wantTree, gotTree))
	}
}

var tightLimits = guard.Limits{MaxDepth: 8, MaxInputBytes: 1 << 12, MaxNodes: 64}

func TestScannerMatchesOracle(t *testing.T) {
	docs := append([]string(nil), scannerEdgeCases...)
	for _, tc := range streamDocs {
		docs = append(docs, tc.doc)
	}
	d := classDTD(t)
	for seed := int64(0); seed < 10; seed++ {
		tr := MustGenerate(d, rand.New(rand.NewSource(seed)), GenOptions{StarMax: 4})
		docs = append(docs, tr.String(), tr.StringCompact())
	}
	// Every prefix of a document with each construct ends in a
	// different unexpected-EOF state.
	const all = "<?xml version=\"1.0\"?><!DOCTYPE r [<!-- c -->]><r a='&amp;'>x&#65;&lt;<![CDATA[y]]><!--z--><?p q?><s/></r>"
	for i := range all {
		docs = append(docs, all[:i])
	}
	for _, doc := range docs {
		checkOracle(t, doc, guard.Limits{})
		checkOracle(t, doc, tightLimits)
	}
}

// TestScannerLimitParity puts each limit exactly at a document's need
// and one below it: ParseLimits and the Tokenizer accept the first and
// reject the second with the oracle's *guard.LimitError.
func TestScannerLimitParity(t *testing.T) {
	deep := strings.Repeat("<a>", 6) + "t" + strings.Repeat("</a>", 6) // depth 6, 7 nodes
	wide := "<r>" + strings.Repeat("<c>x</c>", 600) + "</r>"           // 1201 nodes, > 4 KiB
	cases := []struct {
		name      string
		doc       string
		at, under guard.Limits
	}{
		{"depth", deep, guard.Limits{MaxDepth: 6}, guard.Limits{MaxDepth: 5}},
		{"nodes", deep, guard.Limits{MaxNodes: 7}, guard.Limits{MaxNodes: 6}},
		{"nodes-wide", wide, guard.Limits{MaxNodes: 1201}, guard.Limits{MaxNodes: 1200}},
		{"input-bytes", deep, guard.Limits{MaxInputBytes: len(deep)}, guard.Limits{MaxInputBytes: len(deep) - 1}},
		{"input-bytes-wide", wide, guard.Limits{MaxInputBytes: len(wide)}, guard.Limits{MaxInputBytes: len(wide) - 1}},
		{"input-bytes-refill", wide, guard.Limits{MaxInputBytes: len(wide)}, guard.Limits{MaxInputBytes: readBufSize}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseLimits(strings.NewReader(tc.doc), tc.at); err != nil {
				t.Errorf("ParseLimits at the bound: %v", err)
			}
			if _, err := drain(NewTokenizerLimits(strings.NewReader(tc.doc), tc.at)); err != nil {
				t.Errorf("Tokenizer at the bound: %v", err)
			}
			var le *guard.LimitError
			if _, err := ParseLimits(strings.NewReader(tc.doc), tc.under); !errors.As(err, &le) || le.Context != "xmltree: parse" {
				t.Errorf("ParseLimits past the bound: %v, want a parse LimitError", err)
			}
			if _, err := drain(NewTokenizerLimits(strings.NewReader(tc.doc), tc.under)); !errors.As(err, &le) || le.Context != "xmltree: stream" {
				t.Errorf("Tokenizer past the bound: %v, want a stream LimitError", err)
			}
			checkOracle(t, tc.doc, tc.at)
			checkOracle(t, tc.doc, tc.under)
		})
	}
}

// TestScannerRefillParity builds documents of a few read buffers from
// well-formed and malformed fragments and holds the scanner to the
// oracle under random limits and under input-byte limits on both sides
// of every refill: which error wins, a syntax error or the input
// limit, depends on where each reader stops.
func TestScannerRefillParity(t *testing.T) {
	frags := []string{
		"<b>x</b>", "<c/>", "t&amp;u", "<![CDATA[q]]>", "<!-- cc -->", "<?p d?>", "\r\n  ",
		"<d a='1'>y</d>", "&#65;", "é", "<e:f/>", "]]", ">",
		"<g>" + strings.Repeat("w", 300) + "</g>", "<" + strings.Repeat("n", 200) + "/>",
	}
	bad := []string{
		"</x>", "</x y>", "&bad;", "&#0;", "&#12", "\xff", "<a:b:c/>", "<A:0/>", "<0/>", "]]>",
		"<h x=1/>", "<h x='<'/>", "<h/ >", "\x01", "<!-- a -- b -->", "<![CDATX[", "<?xml encoding='latin1'?>",
	}
	// Each fragment at every offset across the first refill, with the
	// input limit at that refill.
	for _, f := range append(bad, frags...) {
		for o := 0; o <= len(f)+2; o++ {
			doc := "<r>" + strings.Repeat("x", readBufSize-3-o) + f + "<z/></r>"
			checkOracle(t, doc, guard.Limits{MaxInputBytes: readBufSize})
		}
	}
	r := rand.New(rand.NewSource(1))
	for it := 0; it < 300; it++ {
		var sb strings.Builder
		sb.WriteString("<r>")
		for i := r.Intn(200); i > 0; i-- {
			sb.WriteString(frags[r.Intn(len(frags))])
		}
		if r.Intn(3) == 0 {
			sb.WriteString(bad[r.Intn(len(bad))])
			for i := r.Intn(50); i > 0; i-- {
				sb.WriteString(frags[r.Intn(len(frags))])
			}
		}
		sb.WriteString("</r>")
		doc := sb.String()
		checkOracle(t, doc, guard.Limits{MaxInputBytes: 1 + r.Intn(len(doc)+10), MaxNodes: 1 + r.Intn(400), MaxDepth: 2 + r.Intn(3)})
		for k := readBufSize; k < len(doc)+readBufSize; k += readBufSize {
			for d := -2; d <= 2; d++ {
				checkOracle(t, doc, guard.Limits{MaxInputBytes: k + d})
			}
		}
	}
}

// TestNameTables checks the name-character tables against the
// encoding/xml decoder, as a whole name and after "a", for every rune
// of the Basic Multilingual Plane and a sample of the others.
func TestNameTables(t *testing.T) {
	accepts := func(name string) bool {
		tok, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).Token()
		se, ok := tok.(xml.StartElement)
		return err == nil && ok && se.Name.Space == "" && se.Name.Local == name
	}
	step := rune(1)
	for r := rune(0); r <= unicode.MaxRune; r += step {
		if r == 0x10000 {
			step = 97
		}
		if r >= 0xD800 && r <= 0xDFFF {
			continue
		}
		s := string(r)
		if got, want := isName([]byte(s)), accepts(s); got != want {
			t.Errorf("U+%04X as a name: %v, decoder %v", r, got, want)
		}
		if got, want := isName([]byte("a"+s)), accepts("a"+s); got != want {
			t.Errorf("U+%04X inside a name: %v, decoder %v", r, got, want)
		}
	}
}
