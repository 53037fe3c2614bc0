// Package dtd models XML Document Type Definitions (DTDs) in the normal
// form used by Fan and Bohannon, "Information Preserving XML Schema
// Embedding" (VLDB 2005 / TODS 2008).
//
// A DTD is a triple (E, P, r): a finite set E of element types, a root
// type r, and for each A in E a production P(A) of one of five shapes:
//
//	str            PCDATA (a single text child)
//	ε              the empty word (no children)
//	B1, ..., Bn    concatenation: exactly one occurrence of each child, in order
//	B1 + ... + Bn  disjunction: one and only one of the children (n > 1, distinct)
//	B*             Kleene star: zero or more B children
//
// Any DTD with general regular-expression content models can be converted
// to this normal form in linear time by introducing fresh element types
// (see Normalize in this package); the paper's algorithms all operate on
// the normal form.
//
// The package also exposes the schema graph view of a DTD: one node per
// element type and AND, OR and STAR edges induced by the productions, as
// used for schema embeddings.
package dtd

import (
	"fmt"
	"strings"
)

// Kind identifies the shape of a production in the paper's normal form.
type Kind uint8

const (
	// KindStr is the production A -> str (PCDATA).
	KindStr Kind = iota
	// KindEmpty is the production A -> ε.
	KindEmpty
	// KindConcat is the production A -> B1, ..., Bn with n >= 1.
	KindConcat
	// KindDisj is the production A -> B1 + ... + Bn with n >= 2 and
	// pairwise-distinct Bi.
	KindDisj
	// KindStar is the production A -> B*.
	KindStar
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindStr:
		return "str"
	case KindEmpty:
		return "empty"
	case KindConcat:
		return "concat"
	case KindDisj:
		return "disjunction"
	case KindStar:
		return "star"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Production is the right-hand side of an element type definition in
// normal form. Children is empty for KindStr and KindEmpty, holds exactly
// one type for KindStar, at least one for KindConcat (repetitions
// allowed), and at least two distinct types for KindDisj.
type Production struct {
	Kind     Kind
	Children []string
}

// Str, Empty, Concat, Disj and Star construct productions of the
// respective kinds.

// Str returns the production A -> str.
func Str() Production { return Production{Kind: KindStr} }

// Empty returns the production A -> ε.
func Empty() Production { return Production{Kind: KindEmpty} }

// Concat returns the production A -> children[0], ..., children[n-1].
func Concat(children ...string) Production {
	return Production{Kind: KindConcat, Children: children}
}

// Disj returns the production A -> children[0] + ... + children[n-1].
func Disj(children ...string) Production {
	return Production{Kind: KindDisj, Children: children}
}

// Star returns the production A -> child*.
func Star(child string) Production {
	return Production{Kind: KindStar, Children: []string{child}}
}

// String renders the production in DTD-like syntax.
func (p Production) String() string {
	switch p.Kind {
	case KindStr:
		return "(#PCDATA)"
	case KindEmpty:
		return "EMPTY"
	case KindConcat:
		return "(" + strings.Join(p.Children, ", ") + ")"
	case KindDisj:
		return "(" + strings.Join(p.Children, " | ") + ")"
	case KindStar:
		return "(" + p.Children[0] + ")*"
	}
	return "<invalid>"
}

// Occurrences returns, for a concatenation production, the number of
// occurrences of label among the children; for other kinds it returns 1
// if label is a child and 0 otherwise.
func (p Production) Occurrences(label string) int {
	n := 0
	for _, c := range p.Children {
		if c == label {
			n++
		}
	}
	return n
}

// ChildIndex returns the 0-based position among all children of the
// occ-th (1-based) occurrence of label, or -1 if there is no such
// occurrence.
func (p Production) ChildIndex(label string, occ int) int {
	seen := 0
	for i, c := range p.Children {
		if c == label {
			seen++
			if seen == occ {
				return i
			}
		}
	}
	return -1
}

// DTD is an XML DTD schema (E, P, r) in the paper's normal form. Types
// records the element types in declaration order; this order is the
// "fixed order on the types" used when constructing minimum default
// instances, so it is part of the schema's identity.
type DTD struct {
	// Root is the distinguished root element type r.
	Root string
	// Types lists every element type in E in declaration order.
	Types []string
	// Prods maps each element type A in E to its production P(A).
	Prods map[string]Production
}

// New builds a DTD from a root type and an ordered list of (type,
// production) definitions. It returns an error if the schema is not
// well formed (see Check).
func New(root string, defs ...Def) (*DTD, error) {
	d := &DTD{Root: root, Prods: make(map[string]Production, len(defs))}
	for _, def := range defs {
		if _, dup := d.Prods[def.Name]; dup {
			return nil, fmt.Errorf("dtd: duplicate definition of element type %q", def.Name)
		}
		d.Types = append(d.Types, def.Name)
		d.Prods[def.Name] = def.Prod
	}
	if err := d.Check(); err != nil {
		return nil, err
	}
	return d, nil
}

// MustNew is like New but panics on error. It is intended for static
// schema literals in tests and example corpora.
func MustNew(root string, defs ...Def) *DTD {
	d, err := New(root, defs...)
	if err != nil {
		panic(err)
	}
	return d
}

// Def pairs an element type with its production, preserving declaration
// order when building a DTD.
type Def struct {
	Name string
	Prod Production
}

// D is shorthand for constructing a Def.
func D(name string, p Production) Def { return Def{Name: name, Prod: p} }

// Check verifies structural well-formedness: the root is defined, every
// referenced child type is defined, concatenations have at least one
// child, disjunctions have at least two pairwise-distinct children, and
// stars have exactly one child. It does not check consistency (absence
// of useless types); see Consistent.
func (d *DTD) Check() error {
	if d.Root == "" {
		return fmt.Errorf("dtd: empty root type")
	}
	if _, ok := d.Prods[d.Root]; !ok {
		return fmt.Errorf("dtd: root type %q is not defined", d.Root)
	}
	if len(d.Types) != len(d.Prods) {
		return fmt.Errorf("dtd: type order list has %d entries but %d productions", len(d.Types), len(d.Prods))
	}
	for _, a := range d.Types {
		p, ok := d.Prods[a]
		if !ok {
			return fmt.Errorf("dtd: type %q listed but not defined", a)
		}
		switch p.Kind {
		case KindStr, KindEmpty:
			if len(p.Children) != 0 {
				return fmt.Errorf("dtd: %s production of %q must have no children", p.Kind, a)
			}
		case KindConcat:
			if len(p.Children) == 0 {
				return fmt.Errorf("dtd: concatenation production of %q has no children", a)
			}
		case KindDisj:
			if len(p.Children) < 2 {
				return fmt.Errorf("dtd: disjunction production of %q needs at least two children", a)
			}
			seen := make(map[string]bool, len(p.Children))
			for _, c := range p.Children {
				if seen[c] {
					return fmt.Errorf("dtd: disjunction production of %q repeats child %q", a, c)
				}
				seen[c] = true
			}
		case KindStar:
			if len(p.Children) != 1 {
				return fmt.Errorf("dtd: star production of %q must have exactly one child", a)
			}
		default:
			return fmt.Errorf("dtd: type %q has invalid production kind %d", a, p.Kind)
		}
		for _, c := range p.Children {
			if _, ok := d.Prods[c]; !ok {
				return fmt.Errorf("dtd: type %q references undefined child type %q", a, c)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the DTD.
func (d *DTD) Clone() *DTD {
	c := &DTD{
		Root:  d.Root,
		Types: append([]string(nil), d.Types...),
		Prods: make(map[string]Production, len(d.Prods)),
	}
	for a, p := range d.Prods {
		c.Prods[a] = Production{Kind: p.Kind, Children: append([]string(nil), p.Children...)}
	}
	return c
}

// Size returns |E|, the number of element types.
func (d *DTD) Size() int { return len(d.Types) }

// Production returns P(A) and whether A is defined.
func (d *DTD) Production(a string) (Production, bool) {
	p, ok := d.Prods[a]
	return p, ok
}

// Equal reports whether two DTDs define the same schema: same root, same
// type order, and identical productions.
func (d *DTD) Equal(o *DTD) bool {
	if d.Root != o.Root || len(d.Types) != len(o.Types) {
		return false
	}
	for i, a := range d.Types {
		if o.Types[i] != a {
			return false
		}
		p, q := d.Prods[a], o.Prods[a]
		if p.Kind != q.Kind || len(p.Children) != len(q.Children) {
			return false
		}
		for j := range p.Children {
			if p.Children[j] != q.Children[j] {
				return false
			}
		}
	}
	return true
}

// String renders the schema as DTD element declarations, root first.
func (d *DTD) String() string {
	var b strings.Builder
	for _, a := range d.Types {
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", a, d.Prods[a])
	}
	return b.String()
}

// Reachable returns the set of element types reachable from the root.
func (d *DTD) Reachable() map[string]bool {
	seen := map[string]bool{d.Root: true}
	stack := []string{d.Root}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range d.Prods[a].Children {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return seen
}

// IsRecursive reports whether the schema graph is cyclic.
func (d *DTD) IsRecursive() bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int, len(d.Types))
	var visit func(a string) bool
	visit = func(a string) bool {
		color[a] = grey
		for _, c := range d.Prods[a].Children {
			switch color[c] {
			case grey:
				return true
			case white:
				if visit(c) {
					return true
				}
			}
		}
		color[a] = black
		return false
	}
	for _, a := range d.Types {
		if color[a] == white && visit(a) {
			return true
		}
	}
	return false
}

// Productive returns the set of element types that derive at least one
// finite XML tree. str, ε and star productions are always productive; a
// concatenation is productive when all children are; a disjunction when
// at least one child is.
func (d *DTD) Productive() map[string]bool {
	prod := make(map[string]bool, len(d.Types))
	for changed := true; changed; {
		changed = false
		for _, a := range d.Types {
			if prod[a] {
				continue
			}
			p := d.Prods[a]
			ok := false
			switch p.Kind {
			case KindStr, KindEmpty, KindStar:
				ok = true
			case KindConcat:
				ok = true
				for _, c := range p.Children {
					if !prod[c] {
						ok = false
						break
					}
				}
			case KindDisj:
				for _, c := range p.Children {
					if prod[c] {
						ok = true
						break
					}
				}
			}
			if ok {
				prod[a] = true
				changed = true
			}
		}
	}
	return prod
}

// Consistent converts the DTD to an equivalent consistent one: a schema
// with no useless element types, i.e. every type appears in some
// instance. It removes unproductive disjuncts, rewrites stars over
// unproductive children to ε, and drops unreachable types, following the
// standard useless-symbol elimination for context-free grammars (the
// paper's §2.1). It returns an error if the root itself is unproductive,
// in which case I(S) is empty and no consistent equivalent exists.
func (d *DTD) Consistent() (*DTD, error) {
	prod := d.Productive()
	if !prod[d.Root] {
		return nil, fmt.Errorf("dtd: root type %q is unproductive; the schema has no instances", d.Root)
	}
	// Rewrite productions restricted to productive types.
	trimmed := &DTD{Root: d.Root, Prods: make(map[string]Production, len(d.Prods))}
	for _, a := range d.Types {
		if !prod[a] {
			continue
		}
		p := d.Prods[a]
		switch p.Kind {
		case KindDisj:
			var keep []string
			for _, c := range p.Children {
				if prod[c] {
					keep = append(keep, c)
				}
			}
			switch len(keep) {
			case 1:
				p = Concat(keep[0])
			default:
				p = Disj(keep...)
			}
		case KindStar:
			if !prod[p.Children[0]] {
				p = Empty()
			}
		}
		trimmed.Types = append(trimmed.Types, a)
		trimmed.Prods[a] = p
	}
	// Drop unreachable types.
	reach := trimmed.Reachable()
	out := &DTD{Root: d.Root, Prods: make(map[string]Production, len(reach))}
	for _, a := range trimmed.Types {
		if reach[a] {
			out.Types = append(out.Types, a)
			out.Prods[a] = trimmed.Prods[a]
		}
	}
	if err := out.Check(); err != nil {
		return nil, fmt.Errorf("dtd: internal error after consistency trim: %w", err)
	}
	return out, nil
}

// IsConsistent reports whether every element type is useful, i.e. the
// DTD equals its consistent trim up to production rewriting.
func (d *DTD) IsConsistent() bool {
	prod := d.Productive()
	reach := d.Reachable()
	for _, a := range d.Types {
		if !prod[a] || !reach[a] {
			return false
		}
	}
	// A star over an unproductive child or a disjunction with an
	// unproductive disjunct still leaves that child reachable-but-useless.
	for _, a := range d.Types {
		p := d.Prods[a]
		for _, c := range p.Children {
			if !prod[c] {
				return false
			}
		}
	}
	return true
}

// MinDepth returns, for each productive element type, the height of its
// shortest instance tree (a type with production str or ε has depth 1).
// Unproductive types are absent from the result. The map is used to
// steer random instance generation away from unbounded recursion.
func (d *DTD) MinDepth() map[string]int {
	const inf = int(^uint(0) >> 1)
	depth := make(map[string]int, len(d.Types))
	get := func(a string) int {
		if v, ok := depth[a]; ok {
			return v
		}
		return inf
	}
	for changed := true; changed; {
		changed = false
		for _, a := range d.Types {
			p := d.Prods[a]
			var v int
			switch p.Kind {
			case KindStr, KindEmpty, KindStar:
				v = 1
			case KindConcat:
				v = 1
				for _, c := range p.Children {
					cd := get(c)
					if cd == inf {
						v = inf
						break
					}
					if cd+1 > v {
						v = cd + 1
					}
				}
			case KindDisj:
				v = inf
				for _, c := range p.Children {
					if cd := get(c); cd != inf && cd+1 < v {
						v = cd + 1
					}
				}
			}
			if v != inf && v < get(a) {
				depth[a] = v
				changed = true
			}
		}
	}
	return depth
}
