package embedding

import (
	"context"
	"fmt"

	"repro/internal/dtd"
	"repro/internal/guard"
	"repro/internal/xmltree"
)

// Invert computes σd⁻¹(tgt): it reconstructs the unique source document
// T with σd(T) = tgt, expanding T top-down and recovering the children
// of each node from its source production and the embedded paths
// (Theorem 3.3's algorithm, specialized to embeddings; quadratic in
// |σd(T)| in the worst case, Theorem 4.3a). It fails when tgt is not in
// the image of σd.
func (e *Embedding) Invert(tgt *xmltree.Tree) (*xmltree.Tree, error) {
	return e.InvertCtx(context.Background(), tgt)
}

// InvertCtx is Invert under a context: cancellation is observed once
// per reconstructed source node and surfaces as a *guard.CancelError
// matching the context's error under errors.Is.
func (e *Embedding) InvertCtx(ctx context.Context, tgt *xmltree.Tree) (*xmltree.Tree, error) {
	if err := e.ensureResolved(); err != nil {
		return nil, err
	}
	if tgt.Root == nil {
		return nil, fmt.Errorf("embedding: empty target document")
	}
	if tgt.Root.Label != e.Target.Root {
		return nil, fmt.Errorf("embedding: target root is %q, want %q", tgt.Root.Label, e.Target.Root)
	}
	inv := &inverter{e: e, ctx: ctx, t: &xmltree.Tree{}}
	root, err := inv.reconstruct(tgt.Root, e.Source.Root)
	if err != nil {
		return nil, err
	}
	inv.t.Root = root
	return inv.t, nil
}

type inverter struct {
	e   *Embedding
	ctx context.Context
	t   *xmltree.Tree
}

// reconstruct recovers the source node of type a that was mapped to
// target node w.
func (inv *inverter) reconstruct(w *xmltree.Node, a string) (*xmltree.Node, error) {
	if err := guard.CheckCtx(inv.ctx, "embedding: invert"); err != nil {
		return nil, err
	}
	n := inv.t.NewElement(a)
	prod := inv.e.Source.Prods[a]
	switch prod.Kind {
	case dtd.KindStr:
		steps := inv.e.edges[a][0].steps
		end, ok := navigate(w, steps)
		if !ok {
			return nil, fmt.Errorf("embedding: invert %s: %w", a, navigateErr(w, steps))
		}
		val, ok := end.Value()
		if !ok {
			return nil, fmt.Errorf("embedding: invert %s: target %q has no text", a, end.Label)
		}
		xmltree.Append(n, inv.t.NewText(val))

	case dtd.KindEmpty:

	case dtd.KindConcat:
		for _, ed := range inv.e.edges[a] {
			v, ok := navigate(w, ed.steps)
			if !ok {
				return nil, fmt.Errorf("embedding: invert edge %s: %w", ed.ref, navigateErr(w, ed.steps))
			}
			sub, err := inv.reconstruct(v, ed.ref.Child)
			if err != nil {
				return nil, err
			}
			xmltree.Append(n, sub)
		}

	case dtd.KindDisj:
		// Exactly one disjunct path is navigable: sibling paths diverge
		// at an OR edge, whose target node has a single child.
		var present string
		var at *xmltree.Node
		for _, ed := range inv.e.edges[a] {
			if v, ok := navigate(w, ed.steps); ok {
				if present != "" {
					return nil, fmt.Errorf("embedding: invert %s: both %q and %q paths present", a, present, ed.ref.Child)
				}
				present, at = ed.ref.Child, v
			}
		}
		if present == "" {
			return nil, fmt.Errorf("embedding: invert %s: no disjunct path present under %q", a, w.Label)
		}
		sub, err := inv.reconstruct(at, present)
		if err != nil {
			return nil, err
		}
		xmltree.Append(n, sub)

	case dtd.KindStar:
		steps := inv.e.edges[a][0].steps
		it := iteratorIndex(steps)
		prefixEnd, ok := navigate(w, steps[:it])
		if !ok {
			// The prefix exists whenever at least one child was mapped;
			// a missing prefix means zero children.
			return n, nil
		}
		iterLabel := steps[it].label
		for _, ch := range prefixEnd.Children {
			if ch.Label != iterLabel {
				return nil, fmt.Errorf("embedding: invert %s: unexpected %q under star node %q", a, ch.Label, prefixEnd.Label)
			}
			v, ok := navigate(ch, steps[it+1:])
			if !ok {
				return nil, fmt.Errorf("embedding: invert %s: broken star suffix: %w", a, navigateErr(ch, steps[it+1:]))
			}
			sub, err := inv.reconstruct(v, prod.Children[0])
			if err != nil {
				return nil, err
			}
			xmltree.Append(n, sub)
		}
	}
	return n, nil
}

// navigate follows resolved steps from cur: each step selects the
// occ-th same-label child. It reports false when a step finds no such
// child, or meets an iterator step (callers split star paths around
// the iterator). Disjunct probing expects failures, so navigate builds
// no error; navigateErr explains one.
func navigate(cur *xmltree.Node, steps []resolvedStep) (*xmltree.Node, bool) {
	for _, s := range steps {
		if cur = child(cur, s); cur == nil {
			return nil, false
		}
	}
	return cur, true
}

// child is the node one step selects under cur, or nil.
func child(cur *xmltree.Node, s resolvedStep) *xmltree.Node {
	if s.occ == 0 {
		return nil
	}
	seen := 0
	for _, ch := range cur.Children {
		if ch.Label == s.label {
			if seen++; seen == s.occ {
				return ch
			}
		}
	}
	return nil
}

// navigateErr describes why navigate(cur, steps) failed.
func navigateErr(cur *xmltree.Node, steps []resolvedStep) error {
	for _, s := range steps {
		if s.occ == 0 {
			return fmt.Errorf("internal: navigate across an iterator step %q", s.label)
		}
		next := child(cur, s)
		if next == nil {
			return fmt.Errorf("no %s child #%d under %q", s.label, s.occ, cur.Label)
		}
		cur = next
	}
	return fmt.Errorf("internal: navigate succeeded")
}
