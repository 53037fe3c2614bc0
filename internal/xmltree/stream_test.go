package xmltree

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/guard"
)

// tokensToTree rebuilds a Tree from the tokenizer's event stream, so
// the differential tests can compare against Parse.
func tokensToTree(z *Tokenizer) (*Tree, error) {
	tr := &Tree{}
	var stack []*Node
	for {
		tok, err := z.Next()
		if err != nil {
			return nil, err
		}
		switch tok.Kind {
		case TokStart:
			n := tr.NewElement(tok.Name)
			if len(stack) == 0 {
				tr.Root = n
			} else {
				Append(stack[len(stack)-1], n)
			}
			stack = append(stack, n)
		case TokText:
			Append(stack[len(stack)-1], tr.NewText(tok.Text))
		case TokEnd:
			stack = stack[:len(stack)-1]
		case TokEOF:
			return tr, nil
		}
	}
}

// streamDocs are the differential inputs: every entity/escaping/
// whitespace corner the codec handles must behave identically in the
// tokenizer.
var streamDocs = []struct {
	name string
	doc  string
}{
	{"class", classDoc},
	{"cr-entity", "<a>x&#xD;y</a>"},
	{"cdata", "<a><![CDATA[1 < 2 & 3]]></a>"},
	{"cdata-close", "<a><![CDATA[x]]]]><![CDATA[>y]]></a>"},
	{"entities", "<a>&amp;&lt;&gt;&quot;&apos;</a>"},
	{"comment-split-text", "<a>foo<!-- c -->bar</a>"},
	{"pi-split-text", "<a>foo<?pi data?>bar</a>"},
	{"empty-elems", "<a><b/><c></c></a>"},
	{"ws-only", "<a>\n  <b/>\n\t \n</a>"},
	{"text-outside-root", "junk before <a><b>x</b></a> junk after"},
	{"single-text", "<a>hello world</a>"},
	{"deep", "<a><a><a><a><a>leaf</a></a></a></a></a>"},
	{"mixed", "<a><b/>tail<c>v</c>more</a>"},
	{"utf8", "<a>héllo — 世界</a>"},
	{"trim", "<a>   padded   </a>"},
}

// TestTokenizerMatchesParse checks that the token stream rebuilds the
// exact tree Parse produces, for every corner-case document.
func TestTokenizerMatchesParse(t *testing.T) {
	for _, tc := range streamDocs {
		t.Run(tc.name, func(t *testing.T) {
			want, err := ParseString(tc.doc)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			got, err := tokensToTree(NewTokenizer(strings.NewReader(tc.doc)))
			if err != nil {
				t.Fatalf("tokenize: %v", err)
			}
			if !Equal(want, got) {
				t.Fatalf("tree mismatch:\n%s", Diff(want, got))
			}
		})
	}
}

// TestTokenizerMatchesParseGenerated runs the same differential over
// randomly generated conforming documents.
func TestTokenizerMatchesParseGenerated(t *testing.T) {
	d := classDTD(t)
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := MustGenerate(d, r, GenOptions{StarMax: 4})
		doc := tr.String()
		want, err := ParseString(doc)
		if err != nil {
			t.Fatalf("seed %d: Parse: %v", seed, err)
		}
		got, err := tokensToTree(NewTokenizer(strings.NewReader(doc)))
		if err != nil {
			t.Fatalf("seed %d: tokenize: %v", seed, err)
		}
		if !Equal(want, got) {
			t.Fatalf("seed %d: tree mismatch:\n%s", seed, Diff(want, got))
		}
	}
}

// TestTokenizerErrorsMatchParse checks that every document Parse
// rejects is also rejected by the tokenizer (and vice versa).
func TestTokenizerErrorsMatchParse(t *testing.T) {
	bad := []struct {
		name string
		doc  string
	}{
		{"empty", ""},
		{"no-root", "   just text   "},
		{"multiple-roots", "<a/><b/>"},
		{"unclosed", "<a><b></b>"},
		{"unbalanced-end", "<a></a></b>"},
		{"mismatched", "<a></b>"},
		{"namespaced-name", "<A:0/>"},
		{"bad-syntax", "<a><</a>"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, perr := ParseString(tc.doc)
			_, zerr := tokensToTree(NewTokenizer(strings.NewReader(tc.doc)))
			if perr == nil {
				t.Fatalf("Parse unexpectedly accepted %q", tc.doc)
			}
			if zerr == nil {
				t.Fatalf("tokenizer accepted %q but Parse rejects it: %v", tc.doc, perr)
			}
		})
	}
	// And errors are sticky.
	z := NewTokenizer(strings.NewReader("<a/><b/>"))
	var first error
	for {
		_, err := z.Next()
		if err != nil {
			first = err
			break
		}
	}
	if _, err := z.Next(); err != first {
		t.Fatalf("error not sticky: %v vs %v", err, first)
	}
}

// TestEmitterMatchesWrite feeds each document's token stream, not its
// tree, through an Emitter and requires the bytes Tree.String renders
// from the parsed tree, with Bytes counting them: the streaming and
// tree paths agree on every edge case of streamDocs.
func TestEmitterMatchesWrite(t *testing.T) {
	for _, tc := range streamDocs {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ParseString(tc.doc)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			var b strings.Builder
			e := NewEmitter(&b)
			if err := emitTokens(NewTokenizer(strings.NewReader(tc.doc)), e); err != nil {
				t.Fatalf("emit: %v", err)
			}
			if got, want := b.String(), tr.String(); got != want {
				t.Fatalf("emitter output differs:\n got: %q\nwant: %q", got, want)
			}
			if e.Bytes() != int64(b.Len()) {
				t.Errorf("Bytes() = %d, wrote %d", e.Bytes(), b.Len())
			}
		})
	}
}

// emitTokens pipes every token of z into e and flushes it.
func emitTokens(z *Tokenizer, e *Emitter) error {
	for {
		tok, err := z.Next()
		if err != nil {
			return err
		}
		switch tok.Kind {
		case TokStart:
			err = e.Start(tok.Name)
		case TokText:
			err = e.Text(tok.Text)
		case TokEnd:
			err = e.End()
		case TokEOF:
			return e.Flush()
		}
		if err != nil {
			return err
		}
	}
}

// TestStreamRoundTrip pipes tokenizer straight into emitter and
// compares with the Parse+String normal form.
func TestStreamRoundTrip(t *testing.T) {
	d := classDTD(t)
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		doc := MustGenerate(d, r, GenOptions{StarMax: 4}).String()
		want, err := ParseString(doc)
		if err != nil {
			t.Fatalf("seed %d: Parse: %v", seed, err)
		}
		var b strings.Builder
		if err := emitTokens(NewTokenizer(strings.NewReader(doc)), NewEmitter(&b)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := b.String(); got != want.String() {
			t.Fatalf("seed %d: round trip differs:\n got: %q\nwant: %q", seed, got, want.String())
		}
	}
}

// TestTokenizerLimits is the table-driven guard enforcement suite: the
// tokenizer must bound depth, node count and input bytes even though
// it never builds a tree.
func TestTokenizerLimits(t *testing.T) {
	deep := strings.Repeat("<a>", 50) + strings.Repeat("</a>", 50)
	wide := "<r>" + strings.Repeat("<x/>", 100) + "</r>"
	texty := "<r>" + strings.Repeat("<s>t</s>", 50) + "</r>"
	cases := []struct {
		name      string
		doc       string
		lim       guard.Limits
		wantLimit string // LimitError.Limit, "" for success
	}{
		{"depth-ok", deep, guard.Limits{MaxDepth: 50}, ""},
		{"depth-exceeded", deep, guard.Limits{MaxDepth: 49}, "depth"},
		{"nodes-ok", wide, guard.Limits{MaxNodes: 101}, ""},
		{"nodes-exceeded", wide, guard.Limits{MaxNodes: 100}, "nodes"},
		{"text-counts-as-node", texty, guard.Limits{MaxNodes: 100}, "nodes"},
		{"bytes-exceeded", wide, guard.Limits{MaxInputBytes: 64}, "input-bytes"},
		{"unlimited", deep, guard.Unlimited(), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tokensToTree(NewTokenizerLimits(strings.NewReader(tc.doc), tc.lim))
			if tc.wantLimit == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			var le *guard.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("error = %v, want *guard.LimitError", err)
			}
			if le.Limit != tc.wantLimit {
				t.Fatalf("limit = %q, want %q", le.Limit, tc.wantLimit)
			}
			// Same document, same limits: Parse must agree.
			_, perr := ParseLimits(strings.NewReader(tc.doc), tc.lim)
			var ple *guard.LimitError
			if !errors.As(perr, &ple) || ple.Limit != tc.wantLimit {
				t.Fatalf("ParseLimits error = %v, want %q limit", perr, tc.wantLimit)
			}
		})
	}
}

// TestTokenizerUnread checks LIFO pushback and that stats are not
// double-charged.
func TestTokenizerUnread(t *testing.T) {
	z := NewTokenizer(strings.NewReader("<a><b/></a>"))
	tok, err := z.Next()
	if err != nil || tok.Kind != TokStart || tok.Name != "a" {
		t.Fatalf("first = %+v, %v", tok, err)
	}
	z.Unread(tok)
	again, err := z.Next()
	if err != nil || again != tok {
		t.Fatalf("unread = %+v, %v, want %+v", again, err, tok)
	}
	// Drain and count: a, b, /b, /a → 4 tokens despite the re-read.
	n := int64(1)
	for {
		tok, err := z.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if tok.Kind == TokEOF {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("drained %d tokens, want 4", n)
	}
	if s := z.Stats(); s.Tokens != 4 || s.Nodes != 2 || s.MaxDepth != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestEmitterErrors covers the misuse guards.
func TestEmitterErrors(t *testing.T) {
	var b strings.Builder
	e := NewEmitter(&b)
	if err := e.End(); err == nil {
		t.Fatal("End with nothing open succeeded")
	}
	e = NewEmitter(&b)
	if err := e.Start("a"); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err == nil {
		t.Fatal("Flush with open element succeeded")
	}
}
