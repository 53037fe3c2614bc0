package xmltree

import (
	"testing"

	"repro/internal/guard"
)

// FuzzXMLDecode asserts that decoding never panics on arbitrary input,
// that the byte-level Tokenizer and ParseLimits agree with the
// encoding/xml oracle (oracle_test.go) token for token under default
// and tight limits, with equal *guard.LimitErrors, and that accepted
// documents round-trip: parse → String → parse yields an equal tree
// (value isomorphism, ids ignored).
func FuzzXMLDecode(f *testing.F) {
	seeds := []string{
		"<a/>",
		"<a>text</a>",
		"<a><b/><c>x</c></a>",
		"<a>x<b/>y</a>",
		"<a>&lt;&amp;&gt;</a>",
		"<a><![CDATA[raw <stuff>]]></a>",
		"<a>  \n  </a>",
		"<a attr=\"ignored\"><b/></a>",
		"<a><a><a><a><a/></a></a></a></a>",
		"<ns:a xmlns:ns=\"u\"><ns:b/></ns:a>",
		"<a><b></a>",
		"<a/><b/>",
		"plain text",
		"<a>x&#xD;y</a>",
		"<a><![CDATA[x]]&gt;y]]></a>",
		"<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>",
	}
	for _, s := range append(seeds, scannerEdgeCases...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Hostile nesting or volume must fail with a structured
		// LimitError under tight bounds, never exhaust the stack.
		checkOracle(t, src, tightLimits)
		checkOracle(t, src, guard.Limits{})
		tr, err := ParseString(src)
		if err != nil {
			return
		}
		s := tr.String()
		tr2, err := ParseString(s)
		if err != nil {
			t.Fatalf("reparse of serialization failed: %v\ninput: %q\nserialized:\n%s", err, src, s)
		}
		if !Equal(tr, tr2) {
			t.Errorf("round trip changed the tree: %s\ninput: %q\nserialized:\n%s", Diff(tr, tr2), src, s)
		}
	})
}
