package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/guard"
)

// The differential oracle for the byte-level scanner: the encoding/xml
// loops that Parse and the Tokenizer ran before the scanner replaced
// them, kept verbatim apart from their names and an unpooled scratch
// getter. FuzzXMLDecode and the
// oracle tests hold the scanner to them token for token, error for
// error and limit for limit.

// oracleParseLimits is the encoding/xml ParseLimits (zero fields
// select the default limits; guard.Unlimited() disables the checks).
func oracleParseLimits(r io.Reader, lim guard.Limits) (*Tree, error) {
	lim = lim.WithDefaults()
	cr := &countingReader{r: r, lim: lim, ctx: "xmltree: parse"}
	dec := xml.NewDecoder(cr)
	t := &Tree{}
	scratch := getOracleScratch()
	defer putOracleScratch(scratch)
	names := scratch.names
	nodes := 0
	addNode := func() error {
		nodes++
		return lim.CheckNodes(nodes, "xmltree: parse")
	}
	stack := scratch.stack
	defer func() { scratch.stack = stack }()
	var pending strings.Builder
	flushText := func() error {
		if pending.Len() == 0 {
			return nil
		}
		text := pending.String()
		pending.Reset()
		if strings.TrimSpace(text) == "" {
			return nil
		}
		if len(stack) == 0 {
			return nil
		}
		if err := addNode(); err != nil {
			return err
		}
		Append(stack[len(stack)-1], t.NewText(strings.TrimSpace(text)))
		return nil
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			if le := cr.limitErr; le != nil {
				return nil, le
			}
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			if err := flushText(); err != nil {
				return nil, err
			}
			if err := lim.CheckDepth(len(stack)+1, "xmltree: parse"); err != nil {
				return nil, err
			}
			if err := addNode(); err != nil {
				return nil, err
			}
			if !oracleValidName(tok.Name.Local, names) {
				return nil, fmt.Errorf("xmltree: parse: element name %q is not a valid XML name on its own (namespaced local names like \"ns:%s\" cannot round-trip)", tok.Name.Local, tok.Name.Local)
			}
			n := t.NewElement(tok.Name.Local)
			if len(stack) == 0 {
				if t.Root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements")
				}
				t.Root = n
			} else {
				Append(stack[len(stack)-1], n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if err := flushText(); err != nil {
				return nil, err
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %q", tok.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			pending.WriteString(string(tok))
		}
	}
	if t.Root == nil {
		return nil, fmt.Errorf("xmltree: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unclosed element %q", stack[len(stack)-1].Label)
	}
	return t, nil
}

// oracleValidName reports whether encoding/xml accepts label as a complete
// element name, so that serializing the tree reparses. The decoder
// splits qualified names at the first colon, and a local part like "0"
// (from "<A:0/>") is not a name by itself — labels are what this
// package serializes, so such documents are rejected up front rather
// than producing trees whose serialization cannot be parsed back.
// cache memoizes verdicts per document (labels repeat heavily).
func oracleValidName(label string, cache map[string]bool) bool {
	ok, hit := cache[label]
	if hit {
		return ok
	}
	tok, err := xml.NewDecoder(strings.NewReader("<" + label + "/>")).Token()
	if err == nil {
		se, isStart := tok.(xml.StartElement)
		ok = isStart && se.Name.Space == "" && se.Name.Local == label && len(se.Attr) == 0
	}
	cache[label] = ok
	return ok
}

// oracleScratch is the oracle's per-call state (unpooled: the oracle
// only runs in tests).
type oracleScratch struct {
	stack []*Node
	names map[string]bool
}

func getOracleScratch() *oracleScratch {
	return &oracleScratch{names: make(map[string]bool, 16)}
}

func putOracleScratch(*oracleScratch) {}

// oracleTokenizer is the encoding/xml Tokenizer. It reuses
// encoding/xml exactly as Parse did, so entity expansion ("&#xD;",
// "&amp;"), CDATA ("]]>" handling), comment/PI skipping and the
// whitespace-only-text drop behave identically; a document accepted by
// Parse yields the same node sequence here, and a document rejected by
// Parse fails here with the same class of error.
//
// Limits are enforced during the scan: element nesting depth, total
// node count (elements plus emitted text nodes) and raw input bytes
// are all bounded even though no tree is ever built.
type oracleTokenizer struct {
	dec   *xml.Decoder
	cr    *countingReader
	lim   guard.Limits
	names map[string]bool

	stack    []string // open element labels (the O(depth) state)
	unread   []Tok    // pushed-back / queued tokens, LIFO
	pending  strings.Builder
	stats    TokenizerStats
	rootSeen bool
	err      error // sticky
}

// newOracleTokenizer starts a scan of r under the default guard.Limits.
func newOracleTokenizer(r io.Reader) *oracleTokenizer {
	return newOracleTokenizerLimits(r, guard.Limits{})
}

// newOracleTokenizerLimits is newOracleTokenizer under explicit resource limits
// (zero fields select the defaults; guard.Unlimited() disables the
// checks).
func newOracleTokenizerLimits(r io.Reader, lim guard.Limits) *oracleTokenizer {
	lim = lim.WithDefaults()
	cr := &countingReader{r: r, lim: lim, ctx: "xmltree: stream"}
	return &oracleTokenizer{
		dec:   xml.NewDecoder(cr),
		cr:    cr,
		lim:   lim,
		names: make(map[string]bool, 16),
	}
}

// Depth returns the current open-element nesting depth.
func (z *oracleTokenizer) Depth() int { return len(z.stack) }

// Stats returns resource usage so far.
func (z *oracleTokenizer) Stats() TokenizerStats {
	s := z.stats
	s.InputBytes = int64(z.cr.n)
	return s
}

// Unread pushes tok back; the next call to Next returns it. Multiple
// pushed tokens return in LIFO order. Unread does not undo stats or
// limit accounting — the token was already charged when first read.
func (z *oracleTokenizer) Unread(tok Tok) {
	z.unread = append(z.unread, tok)
}

func (z *oracleTokenizer) fail(err error) (Tok, error) {
	z.err = err
	return Tok{}, err
}

func (z *oracleTokenizer) addNode() error {
	z.stats.Nodes++
	return z.lim.CheckNodes(z.stats.Nodes, "xmltree: stream")
}

// flushText converts accumulated character data into a TokText, or
// reports ok=false when it is empty, whitespace-only, or outside the
// root element (all dropped, exactly as in Parse).
func (z *oracleTokenizer) flushText() (Tok, bool, error) {
	if z.pending.Len() == 0 {
		return Tok{}, false, nil
	}
	text := z.pending.String()
	z.pending.Reset()
	if strings.TrimSpace(text) == "" {
		return Tok{}, false, nil
	}
	if len(z.stack) == 0 {
		return Tok{}, false, nil
	}
	if err := z.addNode(); err != nil {
		return Tok{}, false, err
	}
	z.stats.Tokens++
	return Tok{Kind: TokText, Text: strings.TrimSpace(text)}, true, nil
}

// Next returns the next node-stream event. After TokEOF (or an error)
// every subsequent call returns the same result.
func (z *oracleTokenizer) Next() (Tok, error) {
	if z.err != nil {
		return Tok{}, z.err
	}
	if n := len(z.unread); n > 0 {
		tok := z.unread[n-1]
		z.unread = z.unread[:n-1]
		return tok, nil
	}
	for {
		tok, err := z.dec.Token()
		if err == io.EOF {
			if !z.rootSeen {
				return z.fail(fmt.Errorf("xmltree: no root element"))
			}
			if len(z.stack) != 0 {
				return z.fail(fmt.Errorf("xmltree: unclosed element %q", z.stack[len(z.stack)-1]))
			}
			return Tok{Kind: TokEOF}, nil
		}
		if err != nil {
			if le := z.cr.limitErr; le != nil {
				return z.fail(le)
			}
			return z.fail(fmt.Errorf("xmltree: parse: %w", err))
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			text, ok, err := z.flushText()
			if err != nil {
				return z.fail(err)
			}
			if err := z.lim.CheckDepth(len(z.stack)+1, "xmltree: stream"); err != nil {
				return z.fail(err)
			}
			if err := z.addNode(); err != nil {
				return z.fail(err)
			}
			if !oracleValidName(tok.Name.Local, z.names) {
				return z.fail(fmt.Errorf("xmltree: parse: element name %q is not a valid XML name on its own (namespaced local names like \"ns:%s\" cannot round-trip)", tok.Name.Local, tok.Name.Local))
			}
			if len(z.stack) == 0 {
				if z.rootSeen {
					return z.fail(fmt.Errorf("xmltree: multiple root elements"))
				}
				z.rootSeen = true
			}
			z.stack = append(z.stack, tok.Name.Local)
			if d := len(z.stack); d > z.stats.MaxDepth {
				z.stats.MaxDepth = d
			}
			z.stats.Tokens++
			start := Tok{Kind: TokStart, Name: tok.Name.Local}
			if ok {
				z.Unread(start)
				return text, nil
			}
			return start, nil
		case xml.EndElement:
			text, ok, err := z.flushText()
			if err != nil {
				return z.fail(err)
			}
			if len(z.stack) == 0 {
				return z.fail(fmt.Errorf("xmltree: unbalanced end element %q", tok.Name.Local))
			}
			name := z.stack[len(z.stack)-1]
			z.stack = z.stack[:len(z.stack)-1]
			z.stats.Tokens++
			end := Tok{Kind: TokEnd, Name: name}
			if ok {
				z.Unread(end)
				return text, nil
			}
			return end, nil
		case xml.CharData:
			z.pending.Write(tok)
		}
	}
}
