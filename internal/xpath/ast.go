// Package xpath implements the regular XPath fragment X_R of Marx
// (2004) as used by Fan & Bohannon:
//
//	p ::= ε | A | p/text() | p/p | p ∪ p | p* | p[q]
//	q ::= p | p/text() = 'c' | position() = k | ¬q | q ∧ q | q ∨ q
//
// together with the ordinary XPath fragment X, obtained by replacing p*
// with the descendant-or-self axis p//p. The package provides the AST,
// a parser for a textual syntax, an evaluator over xmltree documents,
// and the X_R paths (η1/.../ηk with ηi = A[q], q ∈ {true, position()=k})
// that schema embeddings map edges to.
//
// Textual syntax notes: '.' is ε (self); '*' is the postfix Kleene star
// of the paper, not the wildcard node test; '|' (or '∪') is union; '//'
// is descendant-or-self (X only); qualifiers use not/and/or (or !, &&,
// ||), position()=k, and p/text()='c'.
package xpath

import (
	"errors"
	"fmt"
	"strings"
)

// Expr is an X_R (or X) path expression.
type Expr interface {
	isExpr()
	// write renders the expression; prec is the surrounding precedence
	// (0 union, 1 sequence, 2 postfix).
	write(b *strings.Builder, prec int)
}

// Qual is a qualifier (Boolean test) appearing in p[q].
type Qual interface {
	isQual()
	writeQ(b *strings.Builder, prec int)
}

type (
	// Empty is ε, the empty path (self). Written '.'.
	Empty struct{}
	// Label is a child-axis step to elements with the given tag.
	Label struct{ Name string }
	// Text is the text() step selecting text-node children.
	Text struct{}
	// Seq is the composition p1/p2.
	Seq struct{ L, R Expr }
	// Union is p1 ∪ p2.
	Union struct{ L, R Expr }
	// Star is the Kleene closure p* (X_R only).
	Star struct{ P Expr }
	// Desc is the descendant-or-self composition p1//p2 (X only).
	Desc struct{ L, R Expr }
	// Filter is p[q].
	Filter struct {
		P Expr
		Q Qual
	}
)

func (Empty) isExpr()  {}
func (Label) isExpr()  {}
func (Text) isExpr()   {}
func (Seq) isExpr()    {}
func (Union) isExpr()  {}
func (Star) isExpr()   {}
func (Desc) isExpr()   {}
func (Filter) isExpr() {}

type (
	// QTrue always holds; it is definable in X_R as [.] and exists as an
	// explicit form for X_R paths.
	QTrue struct{}
	// QPath holds when p selects at least one node.
	QPath struct{ P Expr }
	// QTextEq holds when p/text() selects a text node with value Val. P
	// must end in a Text step (the parser guarantees this).
	QTextEq struct {
		P   Expr
		Val string
	}
	// QPos is position() = K: the context node is the K-th node of the
	// filtered selection.
	QPos struct{ K int }
	// QNot is ¬q.
	QNot struct{ Q Qual }
	// QAnd is q1 ∧ q2.
	QAnd struct{ L, R Qual }
	// QOr is q1 ∨ q2.
	QOr struct{ L, R Qual }
)

func (QTrue) isQual()   {}
func (QPath) isQual()   {}
func (QTextEq) isQual() {}
func (QPos) isQual()    {}
func (QNot) isQual()    {}
func (QAnd) isQual()    {}
func (QOr) isQual()     {}

// String renders the expression in the package's textual syntax; the
// result reparses to an equal AST.
func String(e Expr) string {
	var b strings.Builder
	e.write(&b, 0)
	return b.String()
}

// QualString renders a qualifier.
func QualString(q Qual) string {
	var b strings.Builder
	q.writeQ(&b, 0)
	return b.String()
}

func paren(b *strings.Builder, need bool, f func()) {
	if need {
		b.WriteByte('(')
	}
	f()
	if need {
		b.WriteByte(')')
	}
}

func (Empty) write(b *strings.Builder, prec int)   { b.WriteByte('.') }
func (e Label) write(b *strings.Builder, prec int) { b.WriteString(e.Name) }
func (Text) write(b *strings.Builder, prec int)    { b.WriteString("text()") }

func (e Seq) write(b *strings.Builder, prec int) {
	paren(b, prec > 1, func() {
		e.L.write(b, 1)
		b.WriteByte('/')
		e.R.write(b, 2)
	})
}

func (e Union) write(b *strings.Builder, prec int) {
	paren(b, prec > 0, func() {
		e.L.write(b, 0)
		b.WriteString(" | ")
		e.R.write(b, 1)
	})
}

// Star and Filter write their subject at precedence 2, where every
// expression that is not an atom (Seq, Union, Desc) parenthesizes
// itself.
func (e Star) write(b *strings.Builder, prec int) {
	e.P.write(b, 2)
	b.WriteByte('*')
}

func (e Desc) write(b *strings.Builder, prec int) {
	paren(b, prec > 1, func() {
		e.L.write(b, 1)
		b.WriteString("//")
		e.R.write(b, 2)
	})
}

func (e Filter) write(b *strings.Builder, prec int) {
	e.P.write(b, 2)
	b.WriteByte('[')
	e.Q.writeQ(b, 0)
	b.WriteByte(']')
}

func (QTrue) writeQ(b *strings.Builder, prec int) { b.WriteString("true()") }

func (q QPath) writeQ(b *strings.Builder, prec int) { q.P.write(b, 0) }

func (q QTextEq) writeQ(b *strings.Builder, prec int) {
	q.P.write(b, 1)
	b.WriteString(" = ")
	writeLit(b, q.Val)
}

// writeLit renders an X_R string literal. The grammar, like XPath 1.0,
// has no escape sequences: a literal is delimited by whichever quote
// kind the value does not contain. A value parsed from source can
// never hold both kinds (the literal ends at its own delimiter), so
// renderings of parsed queries always reparse; for programmatically
// built values holding both kinds there is no expressible literal, and
// the rendering falls back to an XPath-style concat() for display.
func writeLit(b *strings.Builder, s string) {
	const dq, sq = `"`, `'`
	switch {
	case !strings.Contains(s, dq):
		b.WriteString(dq + s + dq)
	case !strings.Contains(s, sq):
		b.WriteString(sq + s + sq)
	default:
		parts := strings.Split(s, dq)
		pieces := make([]string, 0, 2*len(parts))
		for i, p := range parts {
			if i > 0 {
				pieces = append(pieces, sq+dq+sq)
			}
			if p != "" {
				pieces = append(pieces, dq+p+dq)
			}
		}
		b.WriteString("concat(" + strings.Join(pieces, ", ") + ")")
	}
}

func (q QPos) writeQ(b *strings.Builder, prec int) {
	fmt.Fprintf(b, "position() = %d", q.K)
}

func (q QNot) writeQ(b *strings.Builder, prec int) {
	b.WriteString("not(")
	q.Q.writeQ(b, 0)
	b.WriteByte(')')
}

func (q QAnd) writeQ(b *strings.Builder, prec int) {
	paren(b, prec > 1, func() {
		q.L.writeQ(b, 1)
		b.WriteString(" and ")
		q.R.writeQ(b, 2)
	})
}

func (q QOr) writeQ(b *strings.Builder, prec int) {
	paren(b, prec > 0, func() {
		q.L.writeQ(b, 0)
		b.WriteString(" or ")
		q.R.writeQ(b, 1)
	})
}

// SeqOf folds a list of expressions into nested Seq nodes; SeqOf() is ε.
func SeqOf(es ...Expr) Expr {
	if len(es) == 0 {
		return Empty{}
	}
	e := es[0]
	for _, r := range es[1:] {
		e = Seq{L: e, R: r}
	}
	return e
}

// UnionOf folds a non-empty list of expressions into nested Unions.
// Unlike SeqOf — where the empty fold has the natural unit ε — an
// empty union has no X_R expression denoting it, so zero expressions
// is an error.
func UnionOf(es ...Expr) (Expr, error) {
	if len(es) == 0 {
		return nil, errors.New("xpath: UnionOf of zero expressions")
	}
	e := es[0]
	for _, r := range es[1:] {
		e = Union{L: e, R: r}
	}
	return e, nil
}

// Size returns the number of AST nodes of the expression, the |Q| of the
// paper's complexity bounds.
func Size(e Expr) int {
	switch e := e.(type) {
	case Empty, Label, Text:
		return 1
	case Seq:
		return 1 + Size(e.L) + Size(e.R)
	case Union:
		return 1 + Size(e.L) + Size(e.R)
	case Desc:
		return 1 + Size(e.L) + Size(e.R)
	case Star:
		return 1 + Size(e.P)
	case Filter:
		return 1 + Size(e.P) + qualSize(e.Q)
	}
	return 1
}

func qualSize(q Qual) int {
	switch q := q.(type) {
	case QTrue, QPos:
		return 1
	case QPath:
		return 1 + Size(q.P)
	case QTextEq:
		return 1 + Size(q.P)
	case QNot:
		return 1 + qualSize(q.Q)
	case QAnd:
		return 1 + qualSize(q.L) + qualSize(q.R)
	case QOr:
		return 1 + qualSize(q.L) + qualSize(q.R)
	}
	return 1
}

// HasDesc reports whether the expression uses the descendant-or-self
// axis, i.e. lies in X but not in X_R's pure child fragment.
func HasDesc(e Expr) bool {
	switch e := e.(type) {
	case Desc:
		return true
	case Seq:
		return HasDesc(e.L) || HasDesc(e.R)
	case Union:
		return HasDesc(e.L) || HasDesc(e.R)
	case Star:
		return HasDesc(e.P)
	case Filter:
		return HasDesc(e.P) || qualHasDesc(e.Q)
	}
	return false
}

func qualHasDesc(q Qual) bool {
	switch q := q.(type) {
	case QPath:
		return HasDesc(q.P)
	case QTextEq:
		return HasDesc(q.P)
	case QNot:
		return qualHasDesc(q.Q)
	case QAnd:
		return qualHasDesc(q.L) || qualHasDesc(q.R)
	case QOr:
		return qualHasDesc(q.L) || qualHasDesc(q.R)
	}
	return false
}
