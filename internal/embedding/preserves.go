package embedding

import (
	"fmt"

	"repro/internal/xmltree"
)

// Preserves checks query preservation (Theorem 4.2) on one answer:
// Q(T) = idM(Tr(Q)(σd(T))) as node sets. want is Q(T), the source
// query's answer on the source document; got is Tr(Q)(σd(T)), the
// translated query's answer on r.Tree. The error names the first node
// that breaks the equation: a got node outside idM's domain (a default
// fill or a structural node), a got node whose image want lacks (an
// extra image), or a want node that is no got node's image (a missing
// image).
func (r *Result) Preserves(want, got []*xmltree.Node) error {
	hit := make(map[xmltree.NodeID]bool, len(want))
	for _, n := range want {
		hit[n.ID] = false
	}
	for _, n := range got {
		id, ok := r.IDM[n.ID]
		if !ok {
			return fmt.Errorf("embedding: translated answer node %d %q is outside idM's domain", n.ID, n.Label)
		}
		if _, ok := hit[id]; !ok {
			return fmt.Errorf("embedding: translated answer node %d %q maps to source node %d, which the source answer lacks", n.ID, n.Label, id)
		}
		hit[id] = true
	}
	for _, n := range want {
		if !hit[n.ID] {
			return fmt.Errorf("embedding: source answer node %d %q has no image in the translated answer", n.ID, n.Label)
		}
	}
	return nil
}
