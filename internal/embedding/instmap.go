package embedding

import (
	"context"
	"fmt"

	"repro/internal/dtd"
	"repro/internal/guard"
	"repro/internal/xmltree"
)

// Result is the outcome of applying the instance-level mapping σd to a
// source document (algorithm InstMap, §4.2 / Figure 5).
type Result struct {
	// Tree is the target document σd(T); it conforms to the target
	// schema (Theorem 4.1).
	Tree *xmltree.Tree
	// IDM is the node id mapping idM: it maps ids of target nodes back
	// to the ids of the source nodes they were copied from. Nodes added
	// as minimum default instances are not in its domain.
	IDM map[xmltree.NodeID]xmltree.NodeID
	// Fwd maps source node ids to the target nodes they were copied to
	// (the inverse of IDM; σd is injective, Theorem 4.1).
	Fwd map[xmltree.NodeID]xmltree.NodeID
	// Default marks target node ids that belong to minimum default
	// fills rather than mapped source data.
	Default map[xmltree.NodeID]bool
}

// Apply computes σd(src): the instance-level mapping derived from the
// embedding, built top-down by replacing each hot node with the
// production fragment of its source node (InstMap). The source document
// must conform to the source schema; the produced document is
// guaranteed to conform to the target schema.
func (e *Embedding) Apply(src *xmltree.Tree) (*Result, error) {
	return e.ApplyCtx(context.Background(), src)
}

// ApplyCtx is Apply under a context: cancellation is observed once
// per source node during the top-down build and surfaces as a
// *guard.CancelError matching the context's error under errors.Is.
// Batch migration (internal/pipeline) uses this to abandon in-flight
// documents promptly when a run is cut short.
func (e *Embedding) ApplyCtx(ctx context.Context, src *xmltree.Tree) (*Result, error) {
	if err := e.ensureResolved(); err != nil {
		return nil, err
	}
	if err := src.Validate(e.Source); err != nil {
		return nil, fmt.Errorf("embedding: source document does not conform to the source schema: %w", err)
	}
	md, err := MinDef(e.Target)
	if err != nil {
		return nil, err
	}
	m := &mapper{
		e:   e,
		ctx: ctx,
		t:   &xmltree.Tree{},
		md:  md,
		res: &Result{
			IDM:     make(map[xmltree.NodeID]xmltree.NodeID),
			Fwd:     make(map[xmltree.NodeID]xmltree.NodeID),
			Default: make(map[xmltree.NodeID]bool),
		},
		meta: make(map[*xmltree.Node]nodeMeta),
	}
	root, err := m.build(src.Root)
	if err != nil {
		return nil, err
	}
	m.t.Root = root
	m.res.Tree = m.t
	return m.res, nil
}

type nodeMeta struct {
	slot slotKey
	// complete marks subtrees produced by a recursive build (former hot
	// leaves) or instantiated defaults; fill does not descend into them.
	complete bool
}

type mapper struct {
	e    *Embedding
	ctx  context.Context
	t    *xmltree.Tree
	md   MinDefs
	res  *Result
	meta map[*xmltree.Node]nodeMeta
}

func (m *mapper) copyOf(src *xmltree.Node, label string) *xmltree.Node {
	n := m.t.NewElement(label)
	m.res.IDM[n.ID] = src.ID
	m.res.Fwd[src.ID] = n.ID
	return n
}

// build constructs the production fragment pfrag of source node v with
// the hot leaves already replaced by the recursively built fragments of
// v's children, then completes it with default fills.
func (m *mapper) build(v *xmltree.Node) (*xmltree.Node, error) {
	if err := guard.CheckCtx(m.ctx, "embedding: instmap"); err != nil {
		return nil, err
	}
	a := v.Label
	prod, ok := m.e.Source.Prods[a]
	if !ok {
		return nil, fmt.Errorf("embedding: source element %q not in schema", a)
	}
	rt := m.copyOf(v, m.e.Lambda[a])

	switch prod.Kind {
	case dtd.KindStr:
		steps := m.e.resolved[EdgeRef{Parent: a, Child: StrChild, Occ: 1}]
		end, err := m.insertSteps(rt, steps)
		if err != nil {
			return nil, err
		}
		srcText := v.Children[0]
		txt := m.t.NewText(srcText.Text)
		m.res.IDM[txt.ID] = srcText.ID
		m.res.Fwd[srcText.ID] = txt.ID
		xmltree.Append(end, txt)

	case dtd.KindEmpty:
		// Nothing mapped; fill completes the target-required content.

	case dtd.KindConcat, dtd.KindDisj:
		occ := make(map[string]int, len(v.Children))
		for _, c := range v.Children {
			occ[c.Label]++
			ref := EdgeRef{Parent: a, Child: c.Label, Occ: occ[c.Label]}
			steps, ok := m.e.resolved[ref]
			if !ok {
				return nil, fmt.Errorf("embedding: no resolved path for edge %s", ref)
			}
			if err := m.insertChild(rt, steps, c); err != nil {
				return nil, err
			}
		}

	case dtd.KindStar:
		ref := EdgeRef{Parent: a, Child: prod.Children[0], Occ: 1}
		steps := m.e.resolved[ref]
		it := iteratorIndex(steps)
		prefixEnd, err := m.insertSteps(rt, steps[:it])
		if err != nil {
			return nil, err
		}
		for j, c := range v.Children {
			iterSlot := slotKey{label: steps[it].label, occ: j + 1}
			if it == len(steps)-1 {
				sub, err := m.build(c)
				if err != nil {
					return nil, err
				}
				m.meta[sub] = nodeMeta{slot: iterSlot, complete: true}
				xmltree.Append(prefixEnd, sub)
				continue
			}
			iterNode := m.t.NewElement(steps[it].label)
			m.meta[iterNode] = nodeMeta{slot: iterSlot}
			xmltree.Append(prefixEnd, iterNode)
			if err := m.insertChild(iterNode, steps[it+1:], c); err != nil {
				return nil, err
			}
		}
	}
	if err := m.fill(rt); err != nil {
		return nil, err
	}
	return rt, nil
}

func iteratorIndex(steps []resolvedStep) int {
	for i, s := range steps {
		if s.occ == 0 {
			return i
		}
	}
	// Validation guarantees an iterator exists for star paths.
	return len(steps) - 1
}

// insertChild walks all but the last step (merging with already-present
// fragment nodes) and attaches the recursively built fragment of c at
// the final slot.
func (m *mapper) insertChild(base *xmltree.Node, steps []resolvedStep, c *xmltree.Node) error {
	end, err := m.insertSteps(base, steps[:len(steps)-1])
	if err != nil {
		return err
	}
	sub, err := m.build(c)
	if err != nil {
		return err
	}
	m.meta[sub] = nodeMeta{slot: steps[len(steps)-1].slot(), complete: true}
	xmltree.Append(end, sub)
	return nil
}

// insertSteps walks the steps from base, reusing fragment nodes whose
// slot sequences coincide (the longest-matching-prefix rule of the
// production fragment construction) and creating the rest.
func (m *mapper) insertSteps(base *xmltree.Node, steps []resolvedStep) (*xmltree.Node, error) {
	cur := base
	for _, s := range steps {
		key := s.slot()
		var found *xmltree.Node
		for _, ch := range cur.Children {
			if m.meta[ch].slot == key && ch.Label == key.label {
				found = ch
				break
			}
		}
		if found != nil {
			if m.meta[found].complete {
				return nil, fmt.Errorf("embedding: path routes through a completed fragment at %q; prefix-free condition violated", key.label)
			}
			cur = found
			continue
		}
		n := m.t.NewElement(s.label)
		m.meta[n] = nodeMeta{slot: key}
		xmltree.Append(cur, n)
		cur = n
	}
	return cur, nil
}

// fill completes a fragment bottom-up: every non-complete node receives
// the children its target production requires, using minimum default
// instances for the missing ones, and children are sorted into
// production order (the pos order of §4.2).
func (m *mapper) fill(u *xmltree.Node) error {
	if m.meta[u].complete {
		return nil
	}
	prod, ok := m.e.Target.Prods[u.Label]
	if !ok {
		return fmt.Errorf("embedding: target element %q not in schema", u.Label)
	}
	switch prod.Kind {
	case dtd.KindStr:
		switch {
		case len(u.Children) == 0:
			xmltree.Append(u, m.defaultTextNode())
		case len(u.Children) == 1 && u.Children[0].IsText():
			// The str path already placed the text.
		default:
			return fmt.Errorf("embedding: str-typed target %q acquired element children", u.Label)
		}
		return nil

	case dtd.KindEmpty:
		if len(u.Children) != 0 {
			return fmt.Errorf("embedding: ε-typed target %q acquired children", u.Label)
		}
		return nil

	case dtd.KindConcat:
		byIdx := make(map[int]*xmltree.Node, len(u.Children))
		for _, ch := range u.Children {
			key := m.meta[ch].slot
			idx := prod.ChildIndex(key.label, key.occ)
			if idx < 0 {
				return fmt.Errorf("embedding: fragment child %q#%d does not fit production of %q", key.label, key.occ, u.Label)
			}
			if byIdx[idx] != nil {
				return fmt.Errorf("embedding: two fragment children occupy slot %d of %q", idx, u.Label)
			}
			byIdx[idx] = ch
		}
		ordered := make([]*xmltree.Node, 0, len(prod.Children))
		for i, want := range prod.Children {
			ch := byIdx[i]
			if ch == nil {
				var err error
				ch, err = m.instantiateDefault(want)
				if err != nil {
					return err
				}
			}
			ch.Parent = u
			ordered = append(ordered, ch)
		}
		u.Children = ordered

	case dtd.KindDisj:
		switch len(u.Children) {
		case 0:
			def, err := m.instantiateDefault(u.Label)
			if err != nil {
				return err
			}
			// Adopt the default's single disjunct child; the wrapper
			// node is discarded.
			child := def.Children[0]
			child.Parent = u
			u.Children = []*xmltree.Node{child}
			m.meta[child] = nodeMeta{slot: slotKey{label: child.Label, occ: 1}, complete: true}
			delete(m.res.Default, def.ID)
		case 1:
			// The OR path placed the disjunct.
		default:
			return fmt.Errorf("embedding: disjunction target %q acquired %d children; conflicting paths", u.Label, len(u.Children))
		}

	case dtd.KindStar:
		byOcc := make(map[int]*xmltree.Node, len(u.Children))
		max := 0
		for _, ch := range u.Children {
			key := m.meta[ch].slot
			if key.label != prod.Children[0] {
				return fmt.Errorf("embedding: star target %q acquired child %q, want %q", u.Label, key.label, prod.Children[0])
			}
			if byOcc[key.occ] != nil {
				return fmt.Errorf("embedding: two fragment children occupy position %d under %q", key.occ, u.Label)
			}
			byOcc[key.occ] = ch
			if key.occ > max {
				max = key.occ
			}
		}
		ordered := make([]*xmltree.Node, 0, max)
		for i := 1; i <= max; i++ {
			ch := byOcc[i]
			if ch == nil {
				var err error
				ch, err = m.instantiateDefault(prod.Children[0])
				if err != nil {
					return err
				}
			}
			ch.Parent = u
			ordered = append(ordered, ch)
		}
		u.Children = ordered
	}
	for _, ch := range u.Children {
		if err := m.fill(ch); err != nil {
			return err
		}
	}
	return nil
}

func (m *mapper) defaultTextNode() *xmltree.Node {
	txt := m.t.NewText(DefaultText)
	m.res.Default[txt.ID] = true
	return txt
}

// instantiateDefault materializes mindef(label), marking the whole
// subtree as default content and as complete for fill.
func (m *mapper) instantiateDefault(label string) (*xmltree.Node, error) {
	n, err := m.md.Instantiate(m.t, label)
	if err != nil {
		return nil, err
	}
	walkMark(n, m.res.Default)
	m.meta[n] = nodeMeta{complete: true}
	return n, nil
}

func walkMark(n *xmltree.Node, set map[xmltree.NodeID]bool) {
	set[n.ID] = true
	for _, c := range n.Children {
		walkMark(c, set)
	}
}
