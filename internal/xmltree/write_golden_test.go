package xmltree

import (
	"bytes"
	"strings"
	"testing"
)

// TestWriteGolden pins the bytes of the indented serialization that
// String and Write produce, one case per rendering rule: an empty
// element, inline text, block children, mixed text and elements,
// indentation past the 32 cached levels, and character-data escaping
// (markup characters, CR, invalid UTF-8).
func TestWriteGolden(t *testing.T) {
	el := func(tr *Tree, parent *Node, label string) *Node {
		n := tr.NewElement(label)
		Append(parent, n)
		return n
	}
	txt := func(tr *Tree, parent *Node, s string) { Append(parent, tr.NewText(s)) }

	deep := func() *Tree {
		tr := New("d")
		n := tr.Root
		for i := 0; i < 34; i++ {
			n = el(tr, n, "d")
		}
		txt(tr, n, "x")
		return tr
	}
	var deepWant strings.Builder
	for i := 0; i < 34; i++ {
		deepWant.WriteString(strings.Repeat("  ", i) + "<d>\n")
	}
	deepWant.WriteString(strings.Repeat("  ", 34) + "<d>x</d>\n")
	for i := 33; i >= 0; i-- {
		deepWant.WriteString(strings.Repeat("  ", i) + "</d>\n")
	}

	for _, c := range []struct {
		name string
		tree func() *Tree
		want string
	}{
		{"empty", func() *Tree { return New("a") }, "<a/>\n"},
		{"inline-text", func() *Tree {
			tr := New("a")
			txt(tr, tr.Root, "hi")
			return tr
		}, "<a>hi</a>\n"},
		{"block", func() *Tree {
			tr := New("a")
			el(tr, tr.Root, "b")
			txt(tr, el(tr, tr.Root, "c"), "v")
			el(tr, el(tr, tr.Root, "d"), "e")
			return tr
		}, "<a>\n  <b/>\n  <c>v</c>\n  <d>\n    <e/>\n  </d>\n</a>\n"},
		{"mixed", func() *Tree {
			tr := New("a")
			txt(tr, tr.Root, "one")
			el(tr, tr.Root, "b")
			txt(tr, tr.Root, "two")
			return tr
		}, "<a>\n  one\n  <b/>\n  two\n</a>\n"},
		{"deep-indent", deep, deepWant.String()},
		{"escaping", func() *Tree {
			tr := New("a")
			txt(tr, el(tr, tr.Root, "m"), "x & y < z > w")
			txt(tr, el(tr, tr.Root, "cr"), "l1\r\nl2")
			txt(tr, el(tr, tr.Root, "bad"), "ok\xffé\xc3")
			return tr
		}, "<a>\n  <m>x &amp; y &lt; z &gt; w</m>\n  <cr>l1&#xD;\nl2</cr>\n  <bad>ok�é�</bad>\n</a>\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := c.tree()
			if got := tr.String(); got != c.want {
				t.Errorf("String() = %q, want %q", got, c.want)
			}
			var buf bytes.Buffer
			if err := tr.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.String() != c.want {
				t.Errorf("Write = %q, want %q", buf.String(), c.want)
			}
		})
	}
}
