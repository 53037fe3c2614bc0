package dtd

import "fmt"

// EdgeKind classifies edges of the schema graph per the paper's
// conventions: solid edges for concatenation (AND), dashed edges for
// disjunction (OR), and '*'-labeled edges for Kleene star (STAR).
type EdgeKind uint8

const (
	// EdgeAND is a solid edge from a concatenation production.
	EdgeAND EdgeKind = iota
	// EdgeOR is a dashed edge from a disjunction production.
	EdgeOR
	// EdgeSTAR is a star edge from a Kleene-star production.
	EdgeSTAR
)

// String returns "AND", "OR" or "STAR".
func (k EdgeKind) String() string {
	switch k {
	case EdgeAND:
		return "AND"
	case EdgeOR:
		return "OR"
	case EdgeSTAR:
		return "STAR"
	}
	return fmt.Sprintf("EdgeKind(%d)", uint8(k))
}

// Edge is an edge of the schema graph. For concatenation productions in
// which a child type occurs several times, each occurrence is a distinct
// edge; Occ is the 1-based occurrence index among children with the same
// label (the position label of the paper's graphs), and Index is the
// 0-based position among all children of the production. For OR and STAR
// edges Occ is always 1.
type Edge struct {
	From  string
	To    string
	Kind  EdgeKind
	Occ   int
	Index int
}

// String renders the edge, including the occurrence label when the
// production repeats the child type.
func (e Edge) String() string {
	if e.Occ > 1 {
		return fmt.Sprintf("%s -%s#%d-> %s", e.From, e.Kind, e.Occ, e.To)
	}
	return fmt.Sprintf("%s -%s-> %s", e.From, e.Kind, e.To)
}

// ChildEdges returns the outgoing schema-graph edges of element type a,
// in production order. str and ε productions have no outgoing edges.
func (d *DTD) ChildEdges(a string) []Edge {
	p, ok := d.Prods[a]
	if !ok {
		return nil
	}
	switch p.Kind {
	case KindConcat:
		edges := make([]Edge, 0, len(p.Children))
		occ := make(map[string]int, len(p.Children))
		for i, c := range p.Children {
			occ[c]++
			edges = append(edges, Edge{From: a, To: c, Kind: EdgeAND, Occ: occ[c], Index: i})
		}
		return edges
	case KindDisj:
		edges := make([]Edge, 0, len(p.Children))
		for i, c := range p.Children {
			edges = append(edges, Edge{From: a, To: c, Kind: EdgeOR, Occ: 1, Index: i})
		}
		return edges
	case KindStar:
		return []Edge{{From: a, To: p.Children[0], Kind: EdgeSTAR, Occ: 1, Index: 0}}
	}
	return nil
}

// Edges returns every edge of the schema graph in declaration order.
func (d *DTD) Edges() []Edge {
	var edges []Edge
	for _, a := range d.Types {
		edges = append(edges, d.ChildEdges(a)...)
	}
	return edges
}
