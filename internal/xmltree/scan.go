package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/guard"
)

// The byte-level scanner under Tokenizer, and so under Parse. It
// accepts exactly the documents the encoding/xml decoder accepts in
// strict mode (no entity map, no charset reader) and finds the same
// elements and character data; oracle_test.go keeps the decoder loop
// this replaced as the differential reference.
//
// Reading follows the decoder byte for byte: input comes through a
// bufio.Reader of the decoder's size that is refilled only when it is
// empty, and every error is raised after the same byte the decoder
// stops at. A document both malformed and over
// guard.Limits.MaxInputBytes therefore fails with the same error as
// before. Bulk runs (character data, names, whitespace) are scanned in
// place in the reader's buffer; only bytes that survive into a token
// are copied.

// readBufSize is the size of the read buffer: bufio's default, which
// the decoder used.
const readBufSize = 4096

// qname is one interned element name.
type qname struct {
	raw   string // the name as written; an end tag must repeat it
	label string // the local part after any prefix: the node label
	// valid reports whether label is an element name on its own, so
	// that a serialized tree reparses. It is false for the local part
	// of names like "A:0".
	valid bool
}

// event is what scan stopped at.
type event uint8

const (
	evStart event = iota
	evEnd
	evEOF
)

// Bytes that a run of character data copies without a closer look, in
// content, in CDATA sections and in attribute values.
var plainText, plainCDATA, plainAttr [256]bool

func init() {
	for c := 0; c < 256; c++ {
		b := byte(c)
		plainText[c] = b != '<' && b != '&' && b != '\r' && b != ']' && b != '>'
		plainCDATA[c] = b != ']' && b != '\r' && b != '>'
		plainAttr[c] = b != '<' && b != '&' && b != '\r' && b != '"' && b != '\''
	}
}

// countingReader bounds the bytes read from the underlying reader.
// The error is kept in limitErr as well: a scan error raised after the
// limit tripped reports the limit instead, as the decoder's callers
// did. ctx names the consumer in limit errors ("xmltree: parse" for
// Parse, "xmltree: stream" for the Tokenizer).
type countingReader struct {
	r        io.Reader
	n        int
	lim      guard.Limits
	ctx      string
	limitErr error
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	if lerr := c.lim.CheckInputBytes(c.n, c.ctx); lerr != nil {
		c.limitErr = lerr
		return n, lerr
	}
	return n, err
}

// fill moves past the consumed window and makes the next buffered
// input the window. It reports false at the end of input or on a read
// error, which stays in z.rerr.
func (z *Tokenizer) fill() bool {
	if z.rerr != nil {
		return false
	}
	z.lines += bytes.Count(z.win, newline)
	z.br.Discard(len(z.win)) // buffered bytes: cannot fail
	z.win, z.pos = nil, 0
	if _, err := z.br.Peek(1); err != nil {
		z.rerr = err
		return false
	}
	z.win, _ = z.br.Peek(z.br.Buffered())
	return true
}

var newline = []byte{'\n'}

func (z *Tokenizer) getc() (byte, bool) {
	if z.pos == len(z.win) && !z.fill() {
		return 0, false
	}
	b := z.win[z.pos]
	z.pos++
	return b, true
}

// ungetc steps back over the byte getc just returned.
func (z *Tokenizer) ungetc() { z.pos-- }

// mustgetc is getc where the input may not end.
func (z *Tokenizer) mustgetc() (byte, error) {
	if b, ok := z.getc(); ok {
		return b, nil
	}
	return 0, z.readErr()
}

// readErr is the error for input that stopped early.
func (z *Tokenizer) readErr() error {
	if z.rerr == io.EOF {
		return z.syntaxError("unexpected EOF")
	}
	return fmt.Errorf("xmltree: parse: %w", z.rerr)
}

func (z *Tokenizer) syntaxError(msg string) error {
	line := 1 + z.lines + bytes.Count(z.win[:z.pos], newline)
	return fmt.Errorf("xmltree: parse: XML syntax error on line %d: %s", line, msg)
}

// space skips XML whitespace.
func (z *Tokenizer) space() {
	for {
		if z.pos == len(z.win) && !z.fill() {
			return
		}
		w := z.win[z.pos:]
		i := 0
		for i < len(w) && (w[i] == ' ' || w[i] == '\n' || w[i] == '\t' || w[i] == '\r') {
			i++
		}
		z.pos += i
		if i < len(w) {
			return
		}
	}
}

// scan reads up to and including the next start tag or end tag, or to
// the end of input. Character data on the way is decoded onto z.text;
// comments, processing instructions and declarations are skipped.
func (z *Tokenizer) scan() (event, *qname, error) {
	for {
		if len(z.text) == 0 {
			// Leading whitespace is trimmed from every text node, so
			// runs of it between tags are skipped, not copied.
			z.space()
		}
		b, ok := z.getc()
		if !ok {
			if z.rerr == io.EOF {
				return evEOF, nil, nil
			}
			return evEOF, nil, z.readErr()
		}
		if b != '<' {
			z.ungetc()
			if err := z.chars(&z.text, 0, false); err != nil {
				return evEOF, nil, err
			}
			continue
		}
		b, err := z.mustgetc()
		if err != nil {
			return evEOF, nil, err
		}
		switch b {
		case '/':
			q, err := z.endTag()
			return evEnd, q, err
		case '?':
			err = z.procInst()
		case '!':
			err = z.bang()
		default:
			z.ungetc()
			q, err := z.startTag()
			return evStart, q, err
		}
		if err != nil {
			return evEOF, nil, err
		}
	}
}

// readName reads a name, returning nil when the next byte cannot
// begin one (the byte stays unread). Every byte of a multi-byte
// sequence is taken; callers check the name with isName. The result
// aliases the read buffer or z.name and is valid until the next read.
func (z *Tokenizer) readName() ([]byte, error) {
	if z.pos == len(z.win) && !z.fill() {
		return nil, z.readErr()
	}
	w := z.win[z.pos:]
	i := 0
	for i < len(w) && nameByte[w[i]] {
		i++
	}
	if i < len(w) {
		z.pos += i
		if i == 0 {
			return nil, nil
		}
		return w[:i], nil
	}
	// The name reaches the end of the window: collect it across refills.
	z.name = append(z.name[:0], w...)
	z.pos = len(z.win)
	for {
		if !z.fill() {
			return nil, z.readErr()
		}
		w = z.win
		i = 0
		for i < len(w) && nameByte[w[i]] {
			i++
		}
		z.name = append(z.name, w[:i]...)
		z.pos = i
		if i < len(w) {
			return z.name, nil
		}
	}
}

// checkName is the decoder's check of a qualified name: an XML name
// with at most one colon. what is the message when it has more.
func (z *Tokenizer) checkName(raw []byte, what string) error {
	if !isName(raw) {
		return z.syntaxError("invalid XML name: " + string(raw))
	}
	if bytes.Count(raw, []byte{':'}) > 1 {
		return z.syntaxError(what)
	}
	return nil
}

// intern returns the element name raw, checking it on first sight. The
// label is the part after a colon that has text on both sides; a
// leading or trailing colon stays in the label.
func (z *Tokenizer) intern(raw []byte) (*qname, error) {
	if q := z.names[string(raw)]; q != nil {
		return q, nil
	}
	if err := z.checkName(raw, "expected element name after <"); err != nil {
		return nil, err
	}
	q := &qname{raw: string(raw), valid: true}
	q.label = q.raw
	if i := bytes.IndexByte(raw, ':'); i > 0 && i < len(raw)-1 {
		q.label = q.raw[i+1:]
		q.valid = startsName(raw[i+1:])
	}
	z.names[q.raw] = q
	return q, nil
}

// startTag reads a start tag after its '<'. Attributes are checked and
// dropped. An empty tag ("<a/>") sets z.closeNext.
func (z *Tokenizer) startTag() (*qname, error) {
	raw, err := z.readName()
	if err != nil {
		return nil, err
	}
	if raw == nil {
		return nil, z.syntaxError("expected element name after <")
	}
	q, err := z.intern(raw)
	if err != nil {
		return nil, err
	}
	if z.pos < len(z.win) && z.win[z.pos] == '>' {
		z.pos++
		return q, nil
	}
	for {
		z.space()
		b, err := z.mustgetc()
		if err != nil {
			return nil, err
		}
		switch b {
		case '/':
			if b, err = z.mustgetc(); err != nil {
				return nil, err
			}
			if b != '>' {
				return nil, z.syntaxError("expected /> in element")
			}
			z.closeNext = true
			return q, nil
		case '>':
			return q, nil
		}
		z.ungetc()
		if err := z.attr(); err != nil {
			return nil, err
		}
	}
}

// attr reads one name="value" attribute and checks it.
func (z *Tokenizer) attr() error {
	name, err := z.readName()
	if err != nil {
		return err
	}
	if name == nil {
		return z.syntaxError("expected attribute name in element")
	}
	if err := z.checkName(name, "expected attribute name in element"); err != nil {
		return err
	}
	z.space()
	b, err := z.mustgetc()
	if err != nil {
		return err
	}
	if b != '=' {
		return z.syntaxError("attribute name without = in element")
	}
	z.space()
	if b, err = z.mustgetc(); err != nil {
		return err
	}
	if b != '"' && b != '\'' {
		return z.syntaxError("unquoted or missing attribute value in element")
	}
	z.scratch = z.scratch[:0]
	return z.chars(&z.scratch, b, false)
}

// endTag reads an end tag after its "</" and matches it against the
// innermost open element.
func (z *Tokenizer) endTag() (*qname, error) {
	raw, err := z.readName()
	if err != nil {
		return nil, err
	}
	if raw == nil {
		return nil, z.syntaxError("expected element name after </")
	}
	var top *qname
	if n := len(z.stack); n > 0 {
		top = z.stack[n-1]
	}
	match := top != nil && string(raw) == top.raw
	var name string // raw may not survive a refill
	if match {
		name = top.raw
	} else {
		if err := z.checkName(raw, "expected element name after </"); err != nil {
			return nil, err
		}
		name = string(raw)
	}
	z.space()
	b, err := z.mustgetc()
	if err != nil {
		return nil, err
	}
	switch {
	case b != '>':
		return nil, z.syntaxError("invalid characters between </" + name + " and >")
	case match:
		return top, nil
	case top == nil:
		return nil, z.syntaxError("unexpected end element </" + name + ">")
	}
	return nil, z.syntaxError("element <" + top.raw + "> closed by </" + name + ">")
}

// procInst skips a processing instruction after its "<?". An XML
// declaration must name version 1.0 and UTF-8, if anything.
func (z *Tokenizer) procInst() error {
	target, err := z.readName()
	if err != nil {
		return err
	}
	if target == nil {
		return z.syntaxError("expected target name after <?")
	}
	if !isName(target) {
		return z.syntaxError("invalid XML name: " + string(target))
	}
	decl := string(target) == "xml"
	z.space()
	z.scratch = z.scratch[:0]
	var b0 byte
	for {
		b, err := z.mustgetc()
		if err != nil {
			return err
		}
		if decl {
			z.scratch = append(z.scratch, b)
		}
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	if !decl {
		return nil
	}
	content := string(z.scratch[:len(z.scratch)-2])
	if v := declParam("version", content); v != "" && v != "1.0" {
		return fmt.Errorf("xmltree: parse: unsupported XML version %q; only version 1.0 is supported", v)
	}
	if enc := declParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("xmltree: parse: encoding %q declared; only UTF-8 is supported", enc)
	}
	return nil
}

// declParam returns the quoted value of param in an XML declaration's
// content, or "" when there is none. It scans as loosely as the
// decoder did: the first `param=` directly followed by a quote counts,
// with no whitespace allowed around the '='.
func declParam(param, s string) string {
	key := param + "="
	for i := 0; i < len(s); {
		k := strings.Index(s[i:], key)
		if k < 0 || i+k+len(key) >= len(s) {
			return ""
		}
		i += k + len(key)
		if q := s[i]; q == '\'' || q == '"' {
			j := strings.IndexByte(s[i+1:], q)
			if j < 0 {
				return ""
			}
			return s[i+1 : i+1+j]
		}
		i++
	}
	return ""
}

// bang reads the rest of a comment, CDATA section or declaration after
// its "<!". CDATA content is character data.
func (z *Tokenizer) bang() error {
	b, err := z.mustgetc()
	if err != nil {
		return err
	}
	switch b {
	case '-':
		if b, err = z.mustgetc(); err != nil {
			return err
		}
		if b != '-' {
			return z.syntaxError("invalid sequence <!- not part of <!--")
		}
		var b0, b1 byte
		for {
			if b, err = z.mustgetc(); err != nil {
				return err
			}
			if b0 == '-' && b1 == '-' {
				if b != '>' {
					return z.syntaxError(`invalid sequence "--" not allowed in comments`)
				}
				return nil
			}
			b0, b1 = b1, b
		}
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if b, err = z.mustgetc(); err != nil {
				return err
			}
			if b != "CDATA["[i] {
				return z.syntaxError("invalid <![ sequence")
			}
		}
		return z.chars(&z.text, 0, true)
	}
	return z.directive()
}

// directive skips a declaration such as <!DOCTYPE ...> once its first
// byte is read: up to the '>' that is outside quotes and closes every
// '<' opened inside, where a nested "<!--" starts a comment.
func (z *Tokenizer) directive() error {
	var inquote byte
	depth := 0
	for {
		b, err := z.mustgetc()
		if err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < len("!--"); i++ {
				if b, err = z.mustgetc(); err != nil {
					return err
				}
				if b != "!--"[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, err = z.mustgetc(); err != nil {
					return err
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// chars reads one run of character data and appends it, decoded, to
// *dst: content up to a '<' (left unread) or the end of input, an
// attribute value up to its closing quote, a CDATA section up to its
// "]]>". Line ends are normalized ("\r\n" and a lone '\r' become
// '\n'; a "&#xD;" reference stays '\r'), references are replaced, and
// the decoded run must consist of XML characters in valid UTF-8.
func (z *Tokenizer) chars(dst *[]byte, quote byte, cdata bool) error {
	plain := &plainText
	switch {
	case cdata:
		plain = &plainCDATA
	case quote != 0:
		plain = &plainAttr
	}
	out := *dst
	start := len(out)
	// b0 and b1 are the last two raw bytes, for "]]>" and "\r\n".
	var b0, b1 byte
	for {
		if z.pos == len(z.win) && !z.fill() {
			if !cdata {
				break
			}
			if z.rerr == io.EOF {
				return z.syntaxError("unexpected EOF in CDATA section")
			}
			return z.readErr()
		}
		if b1 != '\r' {
			w := z.win[z.pos:]
			i := 0
			for i < len(w) && plain[w[i]] {
				i++
			}
			if i > 0 {
				out = append(out, w[:i]...)
				z.pos += i
				b0, b1 = 0, 0
				continue
			}
		}
		b := z.win[z.pos]
		z.pos++
		if quote == 0 && b0 == ']' && b1 == ']' && b == '>' {
			if cdata {
				out = out[:len(out)-2]
				break
			}
			return z.syntaxError("unescaped ]]> not in CDATA section")
		}
		if b == '<' && !cdata {
			if quote != 0 {
				return z.syntaxError("unescaped < inside quoted string")
			}
			z.ungetc()
			break
		}
		if quote != 0 && b == quote {
			break
		}
		if b == '&' && !cdata {
			var err error
			if out, err = z.reference(out); err != nil {
				return err
			}
			b0, b1 = 0, 0
			continue
		}
		switch {
		case b == '\r':
			out = append(out, '\n')
		case b1 == '\r' && b == '\n':
		default:
			out = append(out, b)
		}
		b0, b1 = b1, b
	}
	*dst = out
	return z.checkChars(out[start:])
}

// reference decodes a character or entity reference after its '&' and
// appends the character to out. Only the five predefined entities
// exist; a reference must end in ';' and name a character other than
// NUL (checked with the rest of the run).
func (z *Tokenizer) reference(out []byte) ([]byte, error) {
	z.ent = append(z.ent[:0], '&')
	b, err := z.mustgetc()
	if err != nil {
		return out, err
	}
	if b == '#' {
		z.ent = append(z.ent, b)
		if b, err = z.mustgetc(); err != nil {
			return out, err
		}
		base := uint64(10)
		if b == 'x' {
			base = 16
			z.ent = append(z.ent, b)
			if b, err = z.mustgetc(); err != nil {
				return out, err
			}
		}
		var n uint64
		digits := 0
		for {
			d, ok := digitValue(b, base)
			if !ok {
				break
			}
			if n <= unicode.MaxRune {
				n = n*base + d
			}
			digits++
			z.ent = append(z.ent, b)
			if b, err = z.mustgetc(); err != nil {
				return out, err
			}
		}
		if b != ';' {
			return out, z.badReference()
		}
		z.ent = append(z.ent, ';')
		if digits == 0 || n > unicode.MaxRune {
			return out, z.badReference()
		}
		return utf8.AppendRune(out, rune(n)), nil
	}
	if nameByte[b] {
		for {
			z.ent = append(z.ent, b)
			if b, err = z.mustgetc(); err != nil {
				return out, err
			}
			if !nameByte[b] {
				break
			}
		}
	}
	if b != ';' {
		return out, z.badReference()
	}
	name := z.ent[1:]
	z.ent = append(z.ent, ';')
	switch string(name) {
	case "lt":
		return append(out, '<'), nil
	case "gt":
		return append(out, '>'), nil
	case "amp":
		return append(out, '&'), nil
	case "apos":
		return append(out, '\''), nil
	case "quot":
		return append(out, '"'), nil
	}
	return out, z.badReference()
}

func (z *Tokenizer) badReference() error {
	ent := string(z.ent)
	if !strings.HasSuffix(ent, ";") {
		ent += " (no semicolon)"
	}
	return z.syntaxError("invalid character entity " + ent)
}

// digitValue is c's value as a digit in base 10 or 16 (either case).
func digitValue(c byte, base uint64) (uint64, bool) {
	switch {
	case '0' <= c && c <= '9':
		return uint64(c - '0'), true
	case base == 16 && 'a' <= c && c <= 'f':
		return uint64(c-'a') + 10, true
	case base == 16 && 'A' <= c && c <= 'F':
		return uint64(c-'A') + 10, true
	}
	return 0, false
}

// checkChars rejects decoded character data that is not valid UTF-8
// or holds a character outside the XML Char production.
func (z *Tokenizer) checkChars(s []byte) error {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return z.syntaxError(fmt.Sprintf("illegal character code %U", rune(c)))
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(s[i:])
		if r == utf8.RuneError && n == 1 {
			return z.syntaxError("invalid UTF-8")
		}
		if !(r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF) {
			return z.syntaxError(fmt.Sprintf("illegal character code %U", r))
		}
		i += n
	}
	return nil
}
