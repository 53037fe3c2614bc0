package xpath

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/guard"
	"repro/internal/xmltree"
)

// Step is one step η = A[q] of an X_R path, where q is either true
// (Pos == 0) or position() = Pos.
type Step struct {
	// Label is the element tag of the step.
	Label string
	// Pos is the position() qualifier; 0 means no qualifier. Pos = k
	// selects the k-th child with this label among the context node's
	// children.
	Pos int
}

// Path is an X_R path ρ = η1/.../ηk (k >= 1), optionally ending with a
// text() step. X_R paths are the form schema embeddings map DTD edges
// to, and the form used by the generic inverse-construction algorithm.
type Path struct {
	Steps []Step
	// Text records a trailing /text() step (paths mapped from str edges
	// end with text()).
	Text bool
}

// NewPath builds a path from labels with no position qualifiers.
func NewPath(labels ...string) Path {
	steps := make([]Step, len(labels))
	for i, l := range labels {
		steps[i] = Step{Label: l}
	}
	return Path{Steps: steps}
}

// WithText returns a copy of the path with a trailing text() step.
func (p Path) WithText() Path {
	q := p.Clone()
	q.Text = true
	return q
}

// Clone returns a deep copy.
func (p Path) Clone() Path {
	return Path{Steps: append([]Step(nil), p.Steps...), Text: p.Text}
}

// Len returns the number of element steps (text() not counted).
func (p Path) Len() int { return len(p.Steps) }

// IsZero reports whether the path has no steps at all.
func (p Path) IsZero() bool { return len(p.Steps) == 0 && !p.Text }

// String renders the path, e.g. "basic/class/semester[position() = 1]/title".
func (p Path) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(s.Label)
		if s.Pos > 0 {
			fmt.Fprintf(&b, "[position() = %d]", s.Pos)
		}
	}
	if p.Text {
		if len(p.Steps) > 0 {
			b.WriteByte('/')
		}
		b.WriteString("text()")
	}
	return b.String()
}

// Equal reports step-wise equality (labels, positions, text suffix).
func (p Path) Equal(o Path) bool {
	if p.Text != o.Text || len(p.Steps) != len(o.Steps) {
		return false
	}
	for i := range p.Steps {
		if p.Steps[i] != o.Steps[i] {
			return false
		}
	}
	return true
}

// IsPrefixOf reports whether p is a prefix of o in the paper's sense:
// o = p/η.../η. Steps compare by label and position; a path is a prefix
// of itself. A path ending in text() is a prefix only of itself.
func (p Path) IsPrefixOf(o Path) bool {
	if len(p.Steps) > len(o.Steps) {
		return false
	}
	for i := range p.Steps {
		if p.Steps[i] != o.Steps[i] {
			return false
		}
	}
	if p.Text {
		return o.Text && len(p.Steps) == len(o.Steps)
	}
	return true
}

// Expr converts the path to an X_R expression.
func (p Path) Expr() Expr {
	var e Expr = Empty{}
	first := true
	add := func(step Expr) {
		if first {
			e = step
			first = false
			return
		}
		e = Seq{L: e, R: step}
	}
	for _, s := range p.Steps {
		var step Expr = Label{Name: s.Label}
		if s.Pos > 0 {
			step = Filter{P: step, Q: QPos{K: s.Pos}}
		}
		add(step)
	}
	if p.Text {
		add(Text{})
	}
	return e
}

// Concat returns p/o. A path ending in text() selects text nodes and
// cannot be extended, so concatenating onto one is an error.
func (p Path) Concat(o Path) (Path, error) {
	if p.Text {
		return Path{}, fmt.Errorf("xpath: cannot extend %q: path ends in text()", p.String())
	}
	return Path{Steps: append(append([]Step(nil), p.Steps...), o.Steps...), Text: o.Text}, nil
}

// EvalPath follows the path from ctx, returning the reached nodes in
// document order. Steps with Pos = k select the k-th same-label child;
// steps without a qualifier select all same-label children.
func (p Path) EvalPath(ctx *xmltree.Node) []*xmltree.Node {
	cur := []*xmltree.Node{ctx}
	for _, s := range p.Steps {
		var next []*xmltree.Node
		for _, n := range cur {
			seen := 0
			for _, c := range n.Children {
				if c.Label != s.Label {
					continue
				}
				seen++
				if s.Pos == 0 || s.Pos == seen {
					next = append(next, c)
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	if p.Text {
		var next []*xmltree.Node
		for _, n := range cur {
			for _, c := range n.Children {
				if c.IsText() {
					next = append(next, c)
				}
			}
		}
		cur = next
	}
	return cur
}

// ParsePath parses an X_R path from its textual form: steps separated
// by '/', each a label optionally followed by [position() = k] (or the
// shorthand [k]), optionally ending in text(). Input size is bounded
// by the default guard.Limits (parsing itself is iterative).
func ParsePath(src string) (Path, error) {
	if err := (guard.Limits{}).WithDefaults().CheckInputBytes(len(src), "xpath: parse path"); err != nil {
		return Path{}, err
	}
	var p Path
	parts := splitPathSteps(src)
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return Path{}, fmt.Errorf("xpath: empty step in path %q", src)
		}
		if part == "text()" {
			if i != len(parts)-1 {
				return Path{}, fmt.Errorf("xpath: text() must be the final step in %q", src)
			}
			p.Text = true
			break
		}
		step, err := parseStep(part)
		if err != nil {
			return Path{}, fmt.Errorf("xpath: path %q: %w", src, err)
		}
		p.Steps = append(p.Steps, step)
	}
	if p.IsZero() {
		return Path{}, fmt.Errorf("xpath: empty path %q", src)
	}
	return p, nil
}

// MustParsePath is ParsePath panicking on error.
func MustParsePath(src string) Path {
	p, err := ParsePath(src)
	if err != nil {
		panic(err)
	}
	return p
}

// splitPathSteps splits on '/' outside brackets.
func splitPathSteps(src string) []string {
	var parts []string
	depth := 0
	start := 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case '/':
			if depth == 0 {
				parts = append(parts, src[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, src[start:])
	return parts
}

func parseStep(part string) (Step, error) {
	open := strings.IndexByte(part, '[')
	if open < 0 {
		if !validName(part) {
			return Step{}, fmt.Errorf("invalid step label %q", part)
		}
		return Step{Label: part}, nil
	}
	if !strings.HasSuffix(part, "]") {
		return Step{}, fmt.Errorf("unterminated qualifier in step %q", part)
	}
	label := strings.TrimSpace(part[:open])
	if !validName(label) {
		return Step{}, fmt.Errorf("invalid step label %q", label)
	}
	inner := strings.TrimSpace(part[open+1 : len(part)-1])
	inner = strings.TrimPrefix(inner, "position()")
	inner = strings.TrimSpace(inner)
	inner = strings.TrimPrefix(inner, "=")
	inner = strings.TrimSpace(inner)
	k, err := strconv.Atoi(inner)
	if err != nil || k < 1 {
		return Step{}, fmt.Errorf("invalid position qualifier in step %q", part)
	}
	return Step{Label: label, Pos: k}, nil
}

func validName(s string) bool {
	if s == "" || !isNameStartByte(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isNameByte(s[i]) {
			return false
		}
	}
	return true
}
