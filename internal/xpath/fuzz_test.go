package xpath

import (
	"errors"
	"testing"

	"repro/internal/guard"
)

// FuzzXPathParse asserts that Parse never panics on arbitrary input
// and that accepted queries round-trip: String renders a query that
// reparses to the same canonical rendering. ParsePath, the parser of
// embedding files, is held to the same: an accepted path reparses from
// its String to an equal path, and where Parse accepts the input too,
// both read the same query, so no qualifier text is dropped.
func FuzzXPathParse(f *testing.F) {
	seeds := []string{
		"a",
		"a/b/c",
		"a/text()",
		"_",
		"(a | b)*/c",
		"a[b/c]",
		`a[b/text() = "x"]`,
		"a[!b]",
		"a[b & (c | !d)]",
		"a//b",
		"(a/(b | c)*)*[d]",
		"((((a))))",
		"a[",
		"a |",
		"//",
		"a[position() = 2 and c]",
		"a[1x]/b",
		"a[position()=1]]",
		"a/b[2]junk]",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	tight := guard.Limits{MaxDepth: 8, MaxInputBytes: 1 << 10}
	f.Fuzz(func(t *testing.T, src string) {
		// Deeply nested input must fail with a structured LimitError
		// under tight bounds, never a stack overflow.
		if _, err := ParseLimits(src, tight); err != nil {
			var le *guard.LimitError
			_ = errors.As(err, &le)
		}
		e, err := Parse(src)
		if p, perr := ParsePath(src); perr == nil {
			back, berr := ParsePath(p.String())
			if berr != nil || !back.Equal(p) {
				t.Fatalf("path rendering does not reparse to the path\ninput: %q\nrendering: %q\nreparse: %q (err %v)", src, p.String(), back.String(), berr)
			}
			if err == nil && String(p.Expr()) != String(e) {
				t.Errorf("ParsePath and Parse read different queries\ninput: %q\nParsePath: %q\nParse: %q", src, String(p.Expr()), String(e))
			}
		}
		if err != nil {
			return
		}
		s := String(e)
		e2, err := Parse(s)
		if err != nil {
			t.Fatalf("reparse of rendering failed: %v\ninput: %q\nrendering: %q", err, src, s)
		}
		if s2 := String(e2); s2 != s {
			t.Errorf("rendering not a parse fixpoint\ninput: %q\nfirst: %q\nsecond: %q", src, s, s2)
		}
	})
}
