package xmltree

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"repro/internal/guard"
)

// Streaming front- and back-end for the tree codec: a pull Tokenizer
// that yields the node stream Parse builds its Tree from (Parse is a
// loop over it), and an Emitter whose output is byte-identical to
// Tree.Write for the same event sequence.
// Together they let the embedding engine apply the instance mapping σd
// with O(depth) state (see internal/embedding/stream.go).

// TokKind discriminates Tok values.
type TokKind uint8

const (
	// TokStart opens an element.
	TokStart TokKind = iota
	// TokText is one PCDATA node (already whitespace-trimmed, exactly
	// as Parse would have stored it).
	TokText
	// TokEnd closes the innermost open element.
	TokEnd
	// TokEOF marks the end of a well-formed document.
	TokEOF
)

func (k TokKind) String() string {
	switch k {
	case TokStart:
		return "start"
	case TokText:
		return "text"
	case TokEnd:
		return "end"
	case TokEOF:
		return "eof"
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

// Tok is one node-stream event. Name is set for TokStart/TokEnd, Text
// for TokText.
type Tok struct {
	Kind TokKind
	Name string
	Text string
}

// TokenizerStats reports resource usage after (or during) a scan.
type TokenizerStats struct {
	Tokens     int64 // events returned (start+text+end)
	Nodes      int   // nodes counted against guard.Limits.MaxNodes
	MaxDepth   int   // deepest open-element nesting observed
	InputBytes int64 // raw bytes consumed from the reader
}

// Tokenizer is a pull scanner over an XML document: a byte-level
// reader (scan.go) under the node-stream rules of Parse. It accepts
// exactly the documents encoding/xml's strict decoder accepted, with
// the same entity and character-reference expansion ("&#xD;" stays a
// carriage return, other line ends become '\n'), CDATA handling,
// skipping of comments, processing instructions and <!DOCTYPE ...>,
// and whitespace-only text dropped. Attributes are checked and
// dropped. A prefixed name "ns:a" yields the label "a"; a name with a
// colon at either end keeps it, and a name with two colons, or whose
// local part cannot start a name ("A:0"), is rejected. Parse is a loop
// over Next, so the two cannot disagree.
//
// Limits are enforced during the scan: element nesting depth, total
// node count (elements plus emitted text nodes) and raw input bytes
// are all bounded even though no tree is ever built.
type Tokenizer struct {
	cr  countingReader
	br  *bufio.Reader
	lim guard.Limits
	ctx string // names the consumer in limit errors

	// The read window: buffered input not yet discarded, consumed up
	// to pos. rerr is the sticky error that ended reading (io.EOF at
	// the end of input); lines counts the newlines of discarded
	// windows, for error positions.
	win   []byte
	pos   int
	rerr  error
	lines int

	names     map[string]*qname // element names interned by raw form
	stack     []*qname          // open elements (the O(depth) state)
	text      []byte            // decoded character data since the last tag
	closeNext bool              // the last start tag was empty: its end is next
	name      []byte            // a name that spans a refill
	scratch   []byte            // attribute values and XML declarations
	ent       []byte            // the reference being decoded, for errors

	unread   []Tok // pushed-back / queued tokens, LIFO
	stats    TokenizerStats
	rootSeen bool
	err      error // sticky
}

// NewTokenizer starts a scan of r under the default guard.Limits.
func NewTokenizer(r io.Reader) *Tokenizer {
	return NewTokenizerLimits(r, guard.Limits{})
}

// NewTokenizerLimits is NewTokenizer under explicit resource limits
// (zero fields select the defaults; guard.Unlimited() disables the
// checks).
func NewTokenizerLimits(r io.Reader, lim guard.Limits) *Tokenizer {
	return newTokenizer(r, lim, "xmltree: stream")
}

// newTokenizer starts a scan of r whose limit errors name ctx.
func newTokenizer(r io.Reader, lim guard.Limits, ctx string) *Tokenizer {
	lim = lim.WithDefaults()
	z := &Tokenizer{lim: lim, ctx: ctx, names: make(map[string]*qname, 16)}
	z.cr = countingReader{r: r, lim: lim, ctx: ctx}
	z.br = bufio.NewReaderSize(&z.cr, readBufSize)
	return z
}

// Depth returns the current open-element nesting depth.
func (z *Tokenizer) Depth() int { return len(z.stack) }

// Stats returns resource usage so far.
func (z *Tokenizer) Stats() TokenizerStats {
	s := z.stats
	s.InputBytes = int64(z.cr.n)
	return s
}

// Unread pushes tok back; the next call to Next returns it. Multiple
// pushed tokens return in LIFO order. Unread does not undo stats or
// limit accounting — the token was already charged when first read.
func (z *Tokenizer) Unread(tok Tok) {
	z.unread = append(z.unread, tok)
}

func (z *Tokenizer) fail(err error) (Tok, error) {
	z.err = err
	return Tok{}, err
}

func (z *Tokenizer) addNode() error {
	z.stats.Nodes++
	return z.lim.CheckNodes(z.stats.Nodes, z.ctx)
}

// flushText turns the character data read since the last tag into a
// TokText, or reports ok=false when it is empty, whitespace-only, or
// outside the root element (all dropped).
func (z *Tokenizer) flushText() (Tok, bool, error) {
	if len(z.text) == 0 {
		return Tok{}, false, nil
	}
	text := bytes.TrimSpace(z.text)
	z.text = z.text[:0]
	if len(text) == 0 || len(z.stack) == 0 {
		return Tok{}, false, nil
	}
	if err := z.addNode(); err != nil {
		return Tok{}, false, err
	}
	z.stats.Tokens++
	return Tok{Kind: TokText, Text: string(text)}, true, nil
}

// Next returns the next node-stream event. After TokEOF (or an error)
// every subsequent call returns the same result.
func (z *Tokenizer) Next() (Tok, error) {
	if z.err != nil {
		return Tok{}, z.err
	}
	if n := len(z.unread); n > 0 {
		tok := z.unread[n-1]
		z.unread = z.unread[:n-1]
		return tok, nil
	}
	ev, q := evEnd, (*qname)(nil)
	if z.closeNext {
		z.closeNext = false
		q = z.stack[len(z.stack)-1]
	} else {
		var err error
		ev, q, err = z.scan()
		if err != nil {
			if le := z.cr.limitErr; le != nil {
				err = le
			}
			return z.fail(err)
		}
	}
	switch ev {
	case evEOF:
		if !z.rootSeen {
			return z.fail(fmt.Errorf("xmltree: no root element"))
		}
		if len(z.stack) != 0 {
			return z.fail(fmt.Errorf("xmltree: unclosed element %q", z.stack[len(z.stack)-1].label))
		}
		return Tok{Kind: TokEOF}, nil
	case evStart:
		text, ok, err := z.flushText()
		if err != nil {
			return z.fail(err)
		}
		if err := z.lim.CheckDepth(len(z.stack)+1, z.ctx); err != nil {
			return z.fail(err)
		}
		if err := z.addNode(); err != nil {
			return z.fail(err)
		}
		if !q.valid {
			return z.fail(fmt.Errorf("xmltree: parse: element name %q is not a valid XML name on its own (namespaced local names like \"ns:%s\" cannot round-trip)", q.label, q.label))
		}
		if len(z.stack) == 0 {
			if z.rootSeen {
				return z.fail(fmt.Errorf("xmltree: multiple root elements"))
			}
			z.rootSeen = true
		}
		z.stack = append(z.stack, q)
		if d := len(z.stack); d > z.stats.MaxDepth {
			z.stats.MaxDepth = d
		}
		z.stats.Tokens++
		start := Tok{Kind: TokStart, Name: q.label}
		if ok {
			z.Unread(start)
			return text, nil
		}
		return start, nil
	}
	text, ok, err := z.flushText()
	if err != nil {
		return z.fail(err)
	}
	z.stack = z.stack[:len(z.stack)-1]
	z.stats.Tokens++
	end := Tok{Kind: TokEnd, Name: q.label}
	if ok {
		z.Unread(end)
		return text, nil
	}
	return end, nil
}

// Emitter serializes a start/text/end event stream as indented XML;
// Tree.Write and Tree.String render trees through it. It buffers at
// most one pending start tag plus one pending text node (the lookahead
// needed to pick the "<a/>", inline "<a>t</a>" or block rendering), so
// its memory is O(depth) regardless of document size. Call Flush after
// the final End.
type Emitter struct {
	w     *bufio.Writer
	depth int
	stack []string

	pendingName string // element started but not yet rendered
	pendingSet  bool
	firstText   string // first text child of the pending element
	textSet     bool

	bytes int64
	err   error // sticky
}

// NewEmitter returns an Emitter writing to w.
func NewEmitter(w io.Writer) *Emitter {
	return &Emitter{w: bufio.NewWriterSize(w, 16<<10)}
}

// Bytes returns the number of bytes written so far (including bytes
// still sitting in the internal buffer).
func (e *Emitter) Bytes() int64 { return e.bytes }

// ws writes s, counting its bytes for Bytes. The first write error
// sticks, and later writes are dropped.
func (e *Emitter) ws(s string) {
	if e.err != nil {
		return
	}
	n, err := e.w.WriteString(s)
	e.bytes += int64(n)
	e.err = err
}

func (e *Emitter) wb(c byte) {
	if e.err != nil {
		return
	}
	if err := e.w.WriteByte(c); err != nil {
		e.err = err
		return
	}
	e.bytes++
}

// escape writes s with the codec's escaping rules (escapeRun), one
// WriteString per unescaped run.
func (e *Emitter) escape(s string) {
	for e.err == nil {
		n, esc := escapeRun(s)
		e.ws(s[:n])
		if n == len(s) {
			return
		}
		e.ws(esc)
		s = s[n+1:]
	}
}

// open renders the pending start tag as a block opener (children
// follow on their own lines) and flushes any buffered first text child
// as the first line.
func (e *Emitter) open() {
	e.ws(indentOf(e.depth))
	e.wb('<')
	e.ws(e.pendingName)
	e.ws(">\n")
	e.stack = append(e.stack, e.pendingName)
	e.depth++
	e.pendingSet = false
	if e.textSet {
		e.ws(indentOf(e.depth))
		e.escape(e.firstText)
		e.wb('\n')
		e.textSet = false
		e.firstText = ""
	}
	e.pendingName = ""
}

// Start opens an element.
func (e *Emitter) Start(label string) error {
	if e.pendingSet {
		e.open()
	}
	e.pendingName = label
	e.pendingSet = true
	return e.err
}

// Text emits one PCDATA node.
func (e *Emitter) Text(s string) error {
	if e.pendingSet {
		if !e.textSet {
			e.firstText = s
			e.textSet = true
			return e.err
		}
		e.open()
	}
	e.ws(indentOf(e.depth))
	e.escape(s)
	e.wb('\n')
	return e.err
}

// End closes the innermost open element, choosing the empty ("<a/>"),
// inline ("<a>t</a>") or block rendering.
func (e *Emitter) End() error {
	if e.pendingSet {
		e.ws(indentOf(e.depth))
		e.wb('<')
		e.ws(e.pendingName)
		if e.textSet {
			e.wb('>')
			e.escape(e.firstText)
			e.ws("</")
			e.ws(e.pendingName)
			e.ws(">\n")
			e.textSet = false
			e.firstText = ""
		} else {
			e.ws("/>\n")
		}
		e.pendingSet = false
		e.pendingName = ""
		return e.err
	}
	if len(e.stack) == 0 {
		if e.err == nil {
			e.err = fmt.Errorf("xmltree: emitter: End with no open element")
		}
		return e.err
	}
	name := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	e.depth--
	e.ws(indentOf(e.depth))
	e.ws("</")
	e.ws(name)
	e.ws(">\n")
	return e.err
}

// Node emits a fully built subtree (used for default fills and
// buffered-reorder fallbacks, where the fragment already exists as
// nodes).
func (e *Emitter) Node(n *Node) error {
	if n.IsText() {
		return e.Text(n.Text)
	}
	if err := e.Start(n.Label); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := e.Node(c); err != nil {
			return err
		}
	}
	return e.End()
}

// Flush drains the internal buffer. It must be called after the final
// End; it is an error to flush with elements still open or pending.
func (e *Emitter) Flush() error {
	if e.err != nil {
		return e.err
	}
	if e.pendingSet || len(e.stack) != 0 {
		e.err = fmt.Errorf("xmltree: emitter: Flush with unclosed element")
		return e.err
	}
	if err := e.w.Flush(); err != nil {
		e.err = err
	}
	return e.err
}
