package xmltree

import (
	"bytes"
	"io"
	"strings"
	"sync"

	"repro/internal/guard"
)

// encPool recycles serialization buffers across documents: batch
// migration encodes thousands of trees back to back, and the buffer
// is the dominant steady-state allocation of Write.
var encPool sync.Pool // *bytes.Buffer

const maxPooledBuf = 1 << 20 // drop oversized buffers instead of pooling them

func getEncBuf() *bytes.Buffer {
	if b, _ := encPool.Get().(*bytes.Buffer); b != nil {
		b.Reset()
		return b
	}
	return bytes.NewBuffer(make([]byte, 0, 4096))
}

func putEncBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	encPool.Put(b)
}

// Parse reads an XML document into a Tree: a loop over the
// Tokenizer's node stream. Whitespace-only character data between
// elements is dropped (the paper's model is element content plus
// PCDATA leaves); attributes, comments, processing instructions and
// directives are ignored. Node ids are assigned in document order.
//
// Parse enforces the default guard.Limits: input size, element nesting
// depth and total node count are bounded, and hostile input fails with
// a *guard.LimitError instead of exhausting the stack or the heap. Use
// ParseLimits to tighten or lift the bounds.
func Parse(r io.Reader) (*Tree, error) {
	return ParseLimits(r, guard.Limits{})
}

// ParseLimits is Parse under explicit resource limits (zero fields
// select the defaults; guard.Unlimited() disables the checks).
func ParseLimits(r io.Reader, lim guard.Limits) (*Tree, error) {
	z := newTokenizer(r, lim, "xmltree: parse")
	var stack []*Node
	t := &Tree{}
	for {
		tok, err := z.Next()
		if err != nil {
			return nil, err
		}
		switch tok.Kind {
		case TokStart:
			n := t.NewElement(tok.Name)
			if len(stack) == 0 {
				t.Root = n
			} else {
				Append(stack[len(stack)-1], n)
			}
			stack = append(stack, n)
		case TokText:
			Append(stack[len(stack)-1], t.NewText(tok.Text))
		case TokEnd:
			stack = stack[:len(stack)-1]
		case TokEOF:
			return t, nil
		}
	}
}

// ParseString is Parse over a string.
func ParseString(s string) (*Tree, error) {
	return Parse(strings.NewReader(s))
}

// Write serializes the tree as indented XML to w. The serialization
// buffer comes from a pool, so batch encoding does not reallocate the
// full document image per tree; output is byte-identical to String.
func (t *Tree) Write(w io.Writer) error {
	b := getEncBuf()
	writeNode(b, t.Root, 0)
	_, err := w.Write(b.Bytes())
	putEncBuf(b)
	return err
}
