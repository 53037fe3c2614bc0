package dtd

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/guard"
)

// Parse reads DTD element declarations from src and returns the schema
// in normal form. root selects the distinguished root type; if empty,
// the first declared element is the root. ATTLIST, ENTITY and NOTATION
// declarations, processing instructions and comments are skipped
// (the paper's model has no attributes). ANY content models and
// parameter entities are not supported.
//
// Parse enforces the default guard.Limits (input size, content-group
// nesting depth, declaration count); hostile input fails with a
// *guard.LimitError instead of exhausting the stack or the heap. Use
// ParseLimits to tighten or lift the bounds.
//
// Go's encoding/xml deliberately does not parse or validate DTDs, so
// this parser is the substrate standing in for a validating XML
// processor's DTD front end.
func Parse(src, root string) (*DTD, error) {
	return ParseLimits(src, root, guard.Limits{})
}

// ParseLimits is Parse under explicit resource limits (zero fields
// select the defaults; guard.Unlimited() disables the checks).
func ParseLimits(src, root string, lim guard.Limits) (*DTD, error) {
	g, err := ParseGeneralLimits(src, root, lim)
	if err != nil {
		return nil, err
	}
	return g.Normalize()
}

// ParseGeneralLimits reads DTD element declarations without
// normalizing the content models, under explicit resource limits.
func ParseGeneralLimits(src, root string, lim guard.Limits) (*GeneralDTD, error) {
	lim = lim.WithDefaults()
	if err := lim.CheckInputBytes(len(src), "dtd: parse"); err != nil {
		return nil, err
	}
	p := &dtdParser{src: src, lim: lim}
	g := &GeneralDTD{Prods: make(map[string]Expr)}
	for {
		p.skipSpace()
		if p.eof() {
			break
		}
		switch {
		case p.consume("<!--"):
			if !p.skipUntil("-->") {
				return nil, p.errf("unterminated comment")
			}
		case p.consume("<!ELEMENT"):
			name, expr, err := p.elementDecl()
			if err != nil {
				return nil, err
			}
			if _, dup := g.Prods[name]; dup {
				return nil, fmt.Errorf("dtd: duplicate declaration of element %q", name)
			}
			if err := p.lim.CheckTypes(len(g.Types)+1, "dtd: parse"); err != nil {
				return nil, err
			}
			g.Types = append(g.Types, name)
			g.Prods[name] = expr
		case p.consume("<!ATTLIST"), p.consume("<!ENTITY"), p.consume("<!NOTATION"):
			if !p.skipDecl() {
				return nil, p.errf("unterminated declaration")
			}
		case p.consume("<?"):
			if !p.skipUntil("?>") {
				return nil, p.errf("unterminated processing instruction")
			}
		case p.consume("<!DOCTYPE"):
			// Allow an internal subset wrapper: <!DOCTYPE root [ ... ]>.
			p.skipSpace()
			if _, err := p.name(); err != nil {
				return nil, err
			}
			p.skipSpace()
			if !p.consume("[") {
				return nil, p.errf("expected '[' after DOCTYPE name")
			}
		case p.consume("]>"), p.consume("]"):
			// End of internal subset; trailing '>' if separated.
			p.skipSpace()
			p.consume(">")
		default:
			return nil, p.errf("unexpected input %q", p.peekContext())
		}
	}
	if len(g.Types) == 0 {
		return nil, fmt.Errorf("dtd: no element declarations found")
	}
	if root == "" {
		root = g.Types[0]
	}
	if _, ok := g.Prods[root]; !ok {
		return nil, fmt.Errorf("dtd: root type %q is not declared", root)
	}
	g.Root = root
	return g, nil
}

type dtdParser struct {
	src   string
	pos   int
	lim   guard.Limits
	depth int // current content-group nesting depth
}

func (p *dtdParser) eof() bool { return p.pos >= len(p.src) }

func (p *dtdParser) errf(format string, args ...any) error {
	line := 1 + strings.Count(p.src[:p.pos], "\n")
	return fmt.Errorf("dtd: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *dtdParser) peekContext() string {
	end := p.pos + 20
	if end > len(p.src) {
		end = len(p.src)
	}
	return p.src[p.pos:end]
}

func (p *dtdParser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *dtdParser) consume(tok string) bool {
	if strings.HasPrefix(p.src[p.pos:], tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *dtdParser) skipUntil(end string) bool {
	i := strings.Index(p.src[p.pos:], end)
	if i < 0 {
		p.pos = len(p.src)
		return false
	}
	p.pos += i + len(end)
	return true
}

// skipDecl skips to the closing '>' of a declaration, honoring quoted
// strings (entity values may contain '>').
func (p *dtdParser) skipDecl() bool {
	for p.pos < len(p.src) {
		switch c := p.src[p.pos]; c {
		case '>':
			p.pos++
			return true
		case '"', '\'':
			p.pos++
			i := strings.IndexByte(p.src[p.pos:], c)
			if i < 0 {
				p.pos = len(p.src)
				return false
			}
			p.pos += i + 1
		default:
			p.pos++
		}
	}
	return false
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *dtdParser) name() (string, error) {
	start := p.pos
	if p.eof() || !isNameStart(p.src[p.pos]) {
		return "", p.errf("expected a name, found %q", p.peekContext())
	}
	p.pos++
	for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

func (p *dtdParser) elementDecl() (string, Expr, error) {
	p.skipSpace()
	name, err := p.name()
	if err != nil {
		return "", nil, err
	}
	p.skipSpace()
	var expr Expr
	switch {
	case p.consume("EMPTY"):
		expr = EEmpty{}
	case p.consume("ANY"):
		return "", nil, p.errf("ANY content model of %q is not supported", name)
	default:
		expr, err = p.contentGroup()
		if err != nil {
			return "", nil, err
		}
	}
	p.skipSpace()
	if !p.consume(">") {
		return "", nil, p.errf("expected '>' closing declaration of %q", name)
	}
	return name, expr, nil
}

// contentGroup parses a parenthesized group with its optional
// repetition suffix. Nesting depth is bounded so hostile input like
// "((((…" fails with a LimitError instead of exhausting the stack.
func (p *dtdParser) contentGroup() (Expr, error) {
	if !p.consume("(") {
		return nil, p.errf("expected '(' in content model, found %q", p.peekContext())
	}
	p.depth++
	defer func() { p.depth-- }()
	if err := p.lim.CheckDepth(p.depth, "dtd: parse"); err != nil {
		return nil, err
	}
	p.skipSpace()
	first, err := p.cp()
	if err != nil {
		return nil, err
	}
	items := []Expr{first}
	sep := byte(0)
	for {
		p.skipSpace()
		switch {
		case p.consume(")"):
			var group Expr
			switch {
			case len(items) == 1:
				group = items[0]
			case sep == '|':
				group = EChoice{Items: items}
			default:
				group = ESeq{Items: items}
			}
			return p.suffix(group), nil
		case p.consume(","), p.consume("|"):
			c := p.src[p.pos-1]
			if sep != 0 && sep != c {
				return nil, p.errf("mixed ',' and '|' separators in one group")
			}
			sep = c
			p.skipSpace()
			item, err := p.cp()
			if err != nil {
				return nil, err
			}
			items = append(items, item)
		default:
			return nil, p.errf("expected ',', '|' or ')' in content model, found %q", p.peekContext())
		}
	}
}

// cp parses a content particle: a name, #PCDATA, or a nested group, with
// an optional repetition suffix.
func (p *dtdParser) cp() (Expr, error) {
	p.skipSpace()
	if p.consume("#PCDATA") {
		return EPCDATA{}, nil
	}
	if !p.eof() && p.src[p.pos] == '(' {
		return p.contentGroup()
	}
	name, err := p.name()
	if err != nil {
		return nil, err
	}
	return p.suffix(EName{Name: name}), nil
}

func (p *dtdParser) suffix(e Expr) Expr {
	switch {
	case p.consume("*"):
		return EStar{Item: e}
	case p.consume("+"):
		return EPlus{Item: e}
	case p.consume("?"):
		return EOpt{Item: e}
	}
	return e
}
